//! Durable on-disk snapshots: checksummed segment files + atomic manifests.
//!
//! Everything upstream of this module lives in memory — every process start
//! regenerates SSB from scratch. This module gives the store a crash-safe
//! persistence substrate:
//!
//! * **Segment files** — one file per named [`Part`], laid out as
//!   `magic | format | kind | enc | rows | payload_len | payload | crc64`.
//!   The CRC covers every byte before it, so torn writes and bit flips are
//!   detected before a single value is decoded. A column's payload is a
//!   fixed preamble a codec followed by exactly the column's
//!   [`Column::encoded_bytes`], the bytes the I/O model charges a scan, so
//!   a file is its column's charged bytes plus 40 bytes of frame and at
//!   most 9 of preamble. A bytes part's payload is its bytes, its row count
//!   their length. Every number is little-endian:
//!
//!   | codec          | preamble                   | then                                     |
//!   |----------------|----------------------------|------------------------------------------|
//!   | plain integers | width `u8`                 | `rows` values at that width              |
//!   | RLE            | —                          | per run: value `i64`, length `u32`       |
//!   | packed         | reference `i64`, bits `u8` | the code words, `u64` each               |
//!   | plain strings  | —                          | per row: length `u8`, its bytes          |
//!   | dictionary     | entries `u32`, bits `u8`   | per entry: length `u8`, its bytes; then  |
//!   |                |                            | the code words, `u64` each               |
//!   | bytes          | —                          | `rows` bytes                             |
//!
//!   The row count lives in the header only: a plain column's value count,
//!   an RLE run's start and a packed image's code count are rebuilt from it.
//!   The codec is [`SEGMENT_FORMAT`] 2, as in snapshot format 2, so a
//!   column's image is the same bytes in both formats.
//! * **Manifest** — `MANIFEST-<generation>` records the generation's
//!   [`Shape`] and lists every segment with its name, file name, geometry
//!   and a *pinned copy* of its CRC; the manifest carries its own trailing
//!   CRC. Each file is written as `{name}.tmp`, fsynced and renamed over
//!   `name`; once the manifest is renamed, one directory fsync makes every
//!   rename durable. A snapshot is visible iff its manifest rename
//!   completed, so that rename is the commit point.
//! * **Shapes** — a [`Shape::Store`] generation is what a session serves,
//!   written by [`write_generation`] and adopted through
//!   [`load_latest_store`] with no decode. Its segments, named by
//!   `cvr-core`'s `CStoreDb::segments` and the session:
//!
//!   | segment                  | holds                                                |
//!   |--------------------------|------------------------------------------------------|
//!   | `{table}.{column}`       | the compressed store's encoded column, as stored     |
//!   | `{table}.plain_bytes`    | each column's uncompressed size, plain integers      |
//!   | `{table}.order`          | the logical row at each stored position, `u32`s      |
//!   | `{table}.keys`           | a dense-key dimension's original key a position      |
//!   | `catalog`                | the planner's statistics, bytes                      |
//!
//!   A [`Shape::Tables`] generation holds the logical tables, one
//!   `{table}.{column}` segment a column ([`write_snapshot`],
//!   [`load_latest`]). Those two entry points keep their `SsbTables`
//!   signatures because the benchmark's storage probe calls them; each is
//!   the one writer or the one loader with the tables' columns as parts.
//! * **Recovery** — [`load_latest`] and [`load_latest_store`] walk
//!   generations newest-first and return the first one of their shape that
//!   validates end-to-end; a damaged newest generation falls back to its
//!   predecessor (counted in [`LoadReport::fallbacks`]) instead of ever
//!   decoding corrupt bytes. The manifest carries [`FORMAT_VERSION`] 3; a
//!   generation of the other shape, or written in another format (format 2
//!   held only logical tables and no shape; format 1 held every plain
//!   integer as 8 bytes), fails typed, naming what it holds, before any of
//!   its segments is read, and the walk falls back past it.
//!
//! A snapshot produces its images on one helper thread, in manifest order,
//! while the caller writes and fsyncs the images already produced; a load
//! reads images on the caller and checks and parses them on [`par::Jobs`]
//! workers. Either way every filesystem call is made on the caller's
//! thread, in manifest order, through one [`Vfs`]. The entry points without
//! a `Vfs` argument run over [`StdFs`]; `crates/storage/tests/crash_states.rs`
//! runs the `_with` forms over an in-memory recorder and loads every state
//! a crash, a lying disk or a failing fsync can leave.
//!
//! This is deliberately a *snapshot* store, not a log: generations are
//! immutable once committed, which is exactly the segment-swap seam a
//! delta-store/tuple-mover write path needs (swap = write new generation,
//! flip manifest).

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::mpsc;
use std::thread;

use cvr_data::table::Strs;
use cvr_data::{star_schema, ColumnData, SsbConfig, SsbTables, TableData, TableSchema};

use crate::encode::{Column, IntColumn, PlainInts, PlainValue, Run, StrColumn, RLE_RUN_BYTES};
use crate::packed::PackedInts;
use crate::par::{self, Jobs, Slot};
use crate::with_plain_values;

mod vfs;

pub use vfs::{StdFs, Vfs};

/// Segment file magic (8 bytes, includes format family).
pub const SEGMENT_MAGIC: &[u8; 8] = b"CVRSEG1\0";
/// Manifest file magic.
pub const MANIFEST_MAGIC: &[u8; 8] = b"CVRMAN1\0";
/// On-disk format of a snapshot, carried by its manifest. Format 3 added the
/// manifest's [`Shape`]; format 2 (logical tables only) and format 1 are
/// refused typed.
pub const FORMAT_VERSION: u32 = 3;
/// Format of a segment file's codec. Unchanged since snapshot format 2 but
/// for the bytes kind, which format 3 added; format 1 (every plain integer as
/// 8 bytes, RLE runs with their starts, 4-byte string lengths) is refused
/// typed.
pub const SEGMENT_FORMAT: u32 = 2;

/// Fixed segment header size: magic(8) + format(4) + kind(1) + enc(1) +
/// pad(2) + rows(8) + payload_len(8).
const SEGMENT_HEADER_BYTES: usize = 32;
/// Trailing checksum size.
const CRC_BYTES: usize = 8;

/// Errors from the persistence layer.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// Underlying filesystem failure, fsync failures included.
    Io(String),
    /// On-disk bytes failed validation — checksum mismatch, bad magic,
    /// impossible geometry, or values that violate a codec invariant.
    /// Corrupt data is *never* partially decoded.
    Corrupt {
        /// Human-readable description of what failed to validate.
        detail: String,
    },
    /// The data directory holds no committed snapshot at all.
    NoSnapshot,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(detail) => write!(f, "persist i/o error: {detail}"),
            PersistError::Corrupt { detail } => write!(f, "snapshot corrupt: {detail}"),
            PersistError::NoSnapshot => write!(f, "no snapshot found"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e.to_string())
    }
}

fn corrupt(detail: impl Into<String>) -> PersistError {
    PersistError::Corrupt { detail: detail.into() }
}

// ---------------------------------------------------------------------------
// CRC64 (reflected ECMA-182), hand-rolled: no external checksum crates.
// ---------------------------------------------------------------------------

const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

/// Slice-by-8 tables: `CRC64_TABLES[0]` is the one-byte table, and
/// `CRC64_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// one step folds a whole 8-byte word.
static CRC64_TABLES: [[u64; 256]; 8] = crc64_tables();

const fn crc64_tables() -> [[u64; 256]; 8] {
    let mut tables = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ CRC64_POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC64/XZ (reflected ECMA-182) over `bytes`, one little-endian word a
/// step; the byte loop only finishes the tail.
pub fn crc64(bytes: &[u8]) -> u64 {
    let t = &CRC64_TABLES;
    let mut crc = !0u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let mut w = [0u8; 8];
        w.copy_from_slice(word);
        let x = crc ^ u64::from_le_bytes(w);
        crc = t[7][(x & 0xFF) as usize]
            ^ t[6][((x >> 8) & 0xFF) as usize]
            ^ t[5][((x >> 16) & 0xFF) as usize]
            ^ t[4][((x >> 24) & 0xFF) as usize]
            ^ t[3][((x >> 32) & 0xFF) as usize]
            ^ t[2][((x >> 40) & 0xFF) as usize]
            ^ t[1][((x >> 48) & 0xFF) as usize]
            ^ t[0][(x >> 56) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

// ---------------------------------------------------------------------------
// Little-endian put/take helpers.
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
/// Append `v` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
/// Append `v` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
/// Append `v` little-endian.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked cursor over untrusted bytes; every overrun is a typed
/// [`PersistError::Corrupt`], never a panic. Its readers take what the
/// `put_*` functions append.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).ok_or_else(|| corrupt("length overflow"))?;
        let s = self.buf.get(self.pos..end).ok_or_else(|| corrupt("truncated record"))?;
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], PersistError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, PersistError> {
        Ok(u16::from_le_bytes(self.array()?))
    }
    /// The next `u32`.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    /// The next `u64`.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    /// The next `i64`.
    pub fn i64(&mut self) -> Result<i64, PersistError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    /// The next `n` bytes, which must be UTF-8.
    pub fn utf8(&mut self, n: usize) -> Result<&'a str, PersistError> {
        std::str::from_utf8(self.take(n)?).map_err(|_| corrupt("invalid utf-8 in record"))
    }

    /// Every byte not yet taken.
    fn rest(&mut self) -> &'a [u8] {
        let rest = &self.buf[self.pos..];
        self.pos = self.buf.len();
        rest
    }

    /// `Ok` when every byte was taken.
    pub fn done(&self) -> Result<(), PersistError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(corrupt(format!("{} trailing bytes after record", self.buf.len() - self.pos)))
        }
    }
}

// ---------------------------------------------------------------------------
// Segment payloads.
// ---------------------------------------------------------------------------

// A segment file holds one [`Part`]: an encoded [`Column`], or bytes; its
// header records the part's kind, encoding and row count, and its payload is
// laid out as the module doc's table says.

/// What one segment holds.
#[derive(Debug, Clone, PartialEq)]
pub enum Part {
    /// An encoded column.
    Column(Column),
    /// Bytes this layer only checksums (the planner's catalog).
    Bytes(Vec<u8>),
}

/// On-disk `kind` tag of a bytes segment; columns are 0 (integers) and 1
/// (strings).
const BYTES_KIND: u8 = 2;

/// On-disk `kind` tag.
fn kind(column: &Column) -> u8 {
    match column {
        Column::Int(_) => 0,
        Column::Str(_) => 1,
    }
}
/// On-disk `enc` tag (encoding within the kind).
fn enc(column: &Column) -> u8 {
    match column {
        Column::Int(IntColumn::Plain { .. }) => 0,
        Column::Int(IntColumn::Rle { .. }) => 1,
        Column::Int(IntColumn::Packed { .. }) => 2,
        Column::Str(StrColumn::Plain { .. }) => 0,
        Column::Str(StrColumn::Dict { .. }) => 1,
    }
}

/// Logical row count recorded in the header.
fn rows(column: &Column) -> u64 {
    column.len() as u64
}

/// Bytes a codec's payload holds before the column's `encoded_bytes()`.
fn preamble_bytes(column: &Column) -> u64 {
    match column {
        Column::Int(IntColumn::Plain(_)) => 1,
        Column::Int(IntColumn::Rle { .. }) | Column::Str(StrColumn::Plain { .. }) => 0,
        Column::Int(IntColumn::Packed { .. }) => 8 + 1,
        Column::Str(StrColumn::Dict { .. }) => 4 + 1,
    }
}

/// A fixed-width number a payload stores in bulk: plain values and words.
trait Le: Copy {
    const BYTES: usize;
    fn put(self, out: &mut [u8]);
    fn get(bytes: &[u8]) -> Self;
}

macro_rules! le {
    ($($t:ty),*) => {$(
        impl Le for $t {
            const BYTES: usize = std::mem::size_of::<$t>();
            #[inline]
            fn put(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(bytes: &[u8]) -> $t {
                let mut le = [0u8; std::mem::size_of::<$t>()];
                le.copy_from_slice(bytes);
                <$t>::from_le_bytes(le)
            }
        }
    )*};
}
le!(u8, u16, u32, u64, i64);

/// Append `values` little-endian, `T::BYTES` each.
fn put_all<T: Le>(out: &mut Vec<u8>, values: &[T]) {
    let at = out.len();
    out.resize(at + values.len() * T::BYTES, 0);
    for (slot, &v) in out[at..].chunks_exact_mut(T::BYTES).zip(values) {
        v.put(slot);
    }
}

/// Every value of `bytes`, which must be whole `T`s.
fn get_all<T: Le>(bytes: &[u8], what: &str) -> Result<Vec<T>, PersistError> {
    if bytes.len() % T::BYTES != 0 {
        return Err(corrupt(format!("{what} payload is not whole {}-byte values", T::BYTES)));
    }
    Ok(bytes.chunks_exact(T::BYTES).map(T::get).collect())
}

/// Each string as a one-byte length and its bytes.
fn put_strs(out: &mut Vec<u8>, values: &[Box<str>]) {
    for v in values {
        out.push(u8::try_from(v.len()).expect("a stored string is at most 255 bytes"));
        out.extend_from_slice(v.as_bytes());
    }
}

/// `n` strings, each a one-byte length and its bytes.
fn get_strs(r: &mut Reader<'_>, n: usize, what: &str) -> Result<Vec<Box<str>>, PersistError> {
    // Each string takes at least its length byte.
    if n > r.buf.len() - r.pos {
        return Err(corrupt(format!("{what} count exceeds payload")));
    }
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.u8()? as usize;
        values.push(Box::<str>::from(r.utf8(len)?));
    }
    Ok(values)
}

fn encode_payload(out: &mut Vec<u8>, column: &Column) {
    match column {
        Column::Int(IntColumn::Plain(values)) => {
            out.push(values.width());
            with_plain_values!(values, |vs| put_all(out, vs));
        }
        Column::Int(IntColumn::Rle { runs, .. }) => {
            for r in runs {
                put_i64(out, r.value);
                put_u32(out, r.len);
            }
        }
        Column::Int(IntColumn::Packed { reference, packed }) => {
            put_i64(out, *reference);
            out.push(packed.value_bits());
            put_all(out, packed.words());
        }
        Column::Str(StrColumn::Plain { values, .. }) => put_strs(out, values),
        Column::Str(StrColumn::Dict { dict, codes }) => {
            put_u32(out, dict.len() as u32);
            out.push(codes.value_bits());
            put_strs(out, dict);
            put_all(out, codes.words());
        }
    }
}

fn decode_int_payload(enc: u8, rows: usize, r: &mut Reader<'_>) -> Result<IntColumn, PersistError> {
    match enc {
        0 => {
            let width = r.u8()?;
            if ![1, 2, 4, 8].contains(&width) {
                return Err(corrupt(format!("invalid plain width {width}")));
            }
            let bytes = r.rest();
            if bytes.len() as u64 != rows as u64 * width as u64 {
                return Err(corrupt(format!("plain payload is not {rows} rows x {width} bytes")));
            }
            Ok(IntColumn::Plain(match width {
                1 => PlainInts::U8(bytes.to_vec()),
                2 => PlainInts::U16(get_all(bytes, "plain")?),
                4 => PlainInts::U32(get_all(bytes, "plain")?),
                _ => PlainInts::I64(get_all(bytes, "plain")?),
            }))
        }
        1 => {
            const RUN: usize = RLE_RUN_BYTES as usize;
            let bytes = r.rest();
            if bytes.len() % RUN != 0 {
                return Err(corrupt("RLE payload is not whole runs"));
            }
            let unsummed = || corrupt("run lengths do not sum to the row count");
            let mut runs = Vec::with_capacity(bytes.len() / RUN);
            let mut start = 0u32;
            for run in bytes.chunks_exact(RUN) {
                let (value, len) = (i64::get(&run[..8]), u32::get(&run[8..]));
                if len == 0 {
                    return Err(corrupt("zero-length run"));
                }
                let end = start.checked_add(len).filter(|&end| end as usize <= rows);
                runs.push(Run { value, start, len });
                start = end.ok_or_else(unsummed)?;
            }
            if start as usize != rows {
                return Err(unsummed());
            }
            Ok(IntColumn::Rle { runs, num_values: rows as u32 })
        }
        2 => {
            let reference = r.i64()?;
            let value_bits = r.u8()?;
            let words = get_all(r.rest(), "packed")?;
            let packed =
                PackedInts::from_raw_parts(words, rows as u32, value_bits).map_err(corrupt)?;
            Ok(IntColumn::Packed { reference, packed })
        }
        other => Err(corrupt(format!("unknown int encoding tag {other}"))),
    }
}

fn decode_str_payload(enc: u8, rows: usize, r: &mut Reader<'_>) -> Result<StrColumn, PersistError> {
    match enc {
        0 => {
            let values = get_strs(r, rows, "string")?;
            let bytes = values.iter().map(|v| 1 + v.len() as u64).sum();
            Ok(StrColumn::Plain { values, bytes })
        }
        1 => {
            let entries = r.u32()? as usize;
            let value_bits = r.u8()?;
            let dict = get_strs(r, entries, "dictionary")?;
            if dict.windows(2).any(|w| w[0] >= w[1]) {
                return Err(corrupt("dictionary is not strictly sorted"));
            }
            let words = get_all(r.rest(), "dictionary code")?;
            let codes =
                PackedInts::from_raw_parts(words, rows as u32, value_bits).map_err(corrupt)?;
            let dict_n = dict.len() as u64;
            let mut bad = false;
            codes.for_each_in(0, codes.len(), |c| bad |= c >= dict_n);
            if bad {
                return Err(corrupt("dictionary code out of range"));
            }
            Ok(StrColumn::Dict { dict, codes })
        }
        other => Err(corrupt(format!("unknown string encoding tag {other}"))),
    }
}

/// A segment image: header, `payload_len` bytes that `payload` appends, and
/// the CRC64 of every byte before it.
fn frame(
    kind: u8,
    enc: u8,
    rows: u64,
    payload_len: u64,
    payload: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let mut out = Vec::with_capacity(SEGMENT_HEADER_BYTES + payload_len as usize + CRC_BYTES);
    out.extend_from_slice(SEGMENT_MAGIC);
    put_u32(&mut out, SEGMENT_FORMAT);
    out.push(kind);
    out.push(enc);
    put_u16(&mut out, 0); // pad
    put_u64(&mut out, rows);
    put_u64(&mut out, payload_len);
    payload(&mut out);
    assert_eq!(
        out.len() as u64,
        SEGMENT_HEADER_BYTES as u64 + payload_len,
        "a payload is its preamble and the column's encoded bytes"
    );
    let crc = crc64(&out);
    put_u64(&mut out, crc);
    out
}

/// Serialize a segment to its full file image (header + payload + CRC64).
/// The payload is the codec's preamble and then exactly the column's
/// [`Column::encoded_bytes`]. Panics on a string longer than 255 bytes, as
/// the row codec does: both store a string's length in one byte.
pub fn encode_segment(column: &Column) -> Vec<u8> {
    let payload_len = preamble_bytes(column) + column.encoded_bytes();
    frame(kind(column), enc(column), rows(column), payload_len, |out| encode_payload(out, column))
}

/// [`encode_segment`] of the plain integer column of `values` at their
/// width, without building the column.
pub fn encode_ints_segment<T: PlainValue>(values: &[T]) -> Vec<u8> {
    let width = std::mem::size_of::<T>();
    let payload_len = 1 + std::mem::size_of_val(values) as u64;
    frame(0, 0, values.len() as u64, payload_len, |out| {
        out.push(width as u8);
        // Each width's values are non-negative or `i64`, so a value's low
        // `width` little-endian bytes are the value.
        let at = out.len();
        out.resize(at + std::mem::size_of_val(values), 0);
        for (slot, v) in out[at..].chunks_exact_mut(width).zip(values) {
            slot.copy_from_slice(&v.widen().to_le_bytes()[..width]);
        }
    })
}

/// The segment image of `bytes`: a bytes part, its row count its length.
pub fn encode_bytes_segment(bytes: &[u8]) -> Vec<u8> {
    let len = bytes.len() as u64;
    frame(BYTES_KIND, 0, len, len, |out| out.extend_from_slice(bytes))
}

/// Parse and fully validate a segment file image. The checksum is verified
/// before any payload byte is interpreted; corrupt images always fail typed.
pub fn decode_part(image: &[u8]) -> Result<Part, PersistError> {
    if image.len() < SEGMENT_HEADER_BYTES + CRC_BYTES {
        return Err(corrupt("segment shorter than header"));
    }
    let (body, crc_bytes) = image.split_at(image.len() - CRC_BYTES);
    if crc64(body) != Reader::new(crc_bytes).u64()? {
        return Err(corrupt("segment checksum mismatch"));
    }
    let mut r = Reader::new(body);
    if r.take(8)? != SEGMENT_MAGIC {
        return Err(corrupt("bad segment magic"));
    }
    check_format("segment", r.u32()?, SEGMENT_FORMAT)?;
    let kind_tag = r.u8()?;
    let enc_tag = r.u8()?;
    if r.u16()? != 0 {
        return Err(corrupt("non-zero header padding"));
    }
    // Positions are `u32`, so no column holds more rows.
    let row_count = r.u64()?;
    let rows = u32::try_from(row_count)
        .map_err(|_| corrupt(format!("row count {row_count} exceeds u32")))?
        as usize;
    let payload_len = r.u64()? as usize;
    if payload_len != body.len() - SEGMENT_HEADER_BYTES {
        return Err(corrupt("payload length does not match file size"));
    }
    let payload_bytes = r.take(payload_len)?;
    r.done()?;
    let mut pr = Reader::new(payload_bytes);
    let part = match kind_tag {
        0 => Part::Column(Column::Int(decode_int_payload(enc_tag, rows, &mut pr)?)),
        1 => Part::Column(Column::Str(decode_str_payload(enc_tag, rows, &mut pr)?)),
        BYTES_KIND if enc_tag == 0 && rows == payload_len => Part::Bytes(pr.rest().to_vec()),
        BYTES_KIND => return Err(corrupt("bytes segment geometry is not its length")),
        other => return Err(corrupt(format!("unknown segment kind {other}"))),
    };
    pr.done()?;
    Ok(part)
}

/// [`decode_part`] of an image that must hold a column.
pub fn decode_segment(image: &[u8]) -> Result<Column, PersistError> {
    match decode_part(image)? {
        Part::Column(column) => Ok(column),
        Part::Bytes(_) => Err(corrupt("segment holds bytes, not a column")),
    }
}

/// Refuse any on-disk format but `current`, naming both.
fn check_format(what: &str, format: u32, current: u32) -> Result<(), PersistError> {
    if format == current {
        Ok(())
    } else {
        Err(corrupt(format!(
            "unsupported {what} format {format} (this build reads format {current})"
        )))
    }
}

/// The CRC64 an image ends with.
fn trailing_crc(image: &[u8]) -> u64 {
    // Invariant: `image` was built by `encode_segment` or accepted by
    // `decode_segment`, so it is longer than `CRC_BYTES`.
    let mut crc = [0u8; CRC_BYTES];
    crc.copy_from_slice(&image[image.len() - CRC_BYTES..]);
    u64::from_le_bytes(crc)
}

// ---------------------------------------------------------------------------
// Manifest.
// ---------------------------------------------------------------------------

/// One segment's entry in a manifest: file identity plus a pinned copy of
/// the segment's own CRC, so the manifest commits to exact content.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Logical name, `table.column`.
    pub name: String,
    /// Relative file name inside the data directory.
    pub file: String,
    /// Segment kind tag.
    pub kind: u8,
    /// Segment encoding tag.
    pub enc: u8,
    /// Logical row count.
    pub rows: u64,
    /// Exact file size in bytes.
    pub bytes: u64,
    /// The segment file's trailing CRC64 (pinned).
    pub crc: u64,
}

/// What a generation holds, which decides who can load it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The logical tables, one column a segment ([`write_snapshot`],
    /// [`load_latest`]).
    Tables,
    /// A served store's encoded parts ([`write_generation`],
    /// [`load_latest_store`]).
    Store,
}

impl Shape {
    fn tag(self) -> u8 {
        match self {
            Shape::Tables => 0,
            Shape::Store => 1,
        }
    }

    fn from_tag(tag: u8) -> Result<Shape, PersistError> {
        match tag {
            0 => Ok(Shape::Tables),
            1 => Ok(Shape::Store),
            other => Err(corrupt(format!("unknown manifest shape {other}"))),
        }
    }

    fn what(self) -> &'static str {
        match self {
            Shape::Tables => "logical tables",
            Shape::Store => "encoded store",
        }
    }
}

/// A parsed, validated manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Snapshot generation (monotonically increasing, 1-based).
    pub generation: u64,
    /// What the generation holds.
    pub shape: Shape,
    /// Scale factor the snapshot was generated at.
    pub sf: f64,
    /// Generator seed.
    pub seed: u64,
    /// Every segment in the snapshot.
    pub entries: Vec<ManifestEntry>,
}

/// File name for generation `gen`'s manifest.
pub fn manifest_name(gen: u64) -> String {
    format!("MANIFEST-{gen}")
}

fn segment_file_name(name: &str, gen: u64) -> String {
    format!("{name}.g{gen}.seg")
}

fn encode_manifest(m: &Manifest) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MANIFEST_MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    out.push(m.shape.tag());
    put_u64(&mut out, m.generation);
    put_u64(&mut out, m.sf.to_bits());
    put_u64(&mut out, m.seed);
    put_u32(&mut out, m.entries.len() as u32);
    for e in &m.entries {
        put_u16(&mut out, e.name.len() as u16);
        out.extend_from_slice(e.name.as_bytes());
        put_u16(&mut out, e.file.len() as u16);
        out.extend_from_slice(e.file.as_bytes());
        out.push(e.kind);
        out.push(e.enc);
        put_u64(&mut out, e.rows);
        put_u64(&mut out, e.bytes);
        put_u64(&mut out, e.crc);
    }
    let crc = crc64(&out);
    put_u64(&mut out, crc);
    out
}

fn decode_manifest(image: &[u8]) -> Result<Manifest, PersistError> {
    if image.len() < 8 + CRC_BYTES {
        return Err(corrupt("manifest shorter than header"));
    }
    let (body, crc_bytes) = image.split_at(image.len() - CRC_BYTES);
    if crc64(body) != Reader::new(crc_bytes).u64()? {
        return Err(corrupt("manifest checksum mismatch"));
    }
    let mut r = Reader::new(body);
    if r.take(8)? != MANIFEST_MAGIC {
        return Err(corrupt("bad manifest magic"));
    }
    check_format("manifest", r.u32()?, FORMAT_VERSION)?;
    let shape = Shape::from_tag(r.u8()?)?;
    let generation = r.u64()?;
    let sf = f64::from_bits(r.u64()?);
    if !sf.is_finite() || sf <= 0.0 {
        return Err(corrupt("manifest scale factor not a positive finite number"));
    }
    let seed = r.u64()?;
    let n = r.u32()? as usize;
    if n > 65_535 {
        return Err(corrupt("manifest segment count implausibly large"));
    }
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let name_len = r.u16()? as usize;
        let name = r.utf8(name_len)?.to_string();
        let file_len = r.u16()? as usize;
        let file = r.utf8(file_len)?.to_string();
        if file.contains('/') || file.contains('\\') || file.starts_with('.') {
            return Err(corrupt(format!("manifest entry file name {file:?} escapes directory")));
        }
        let kind = r.u8()?;
        let enc = r.u8()?;
        let rows = r.u64()?;
        let bytes = r.u64()?;
        let crc = r.u64()?;
        entries.push(ManifestEntry { name, file, kind, enc, rows, bytes, crc });
    }
    r.done()?;
    Ok(Manifest { generation, shape, sf, seed, entries })
}

// ---------------------------------------------------------------------------
// Atomic file writes.
// ---------------------------------------------------------------------------

/// Write `bytes` to `dir/name` as `{name}.tmp` → fsync → rename. The rename
/// is durable only after the caller's directory fsync.
fn write_file_atomic(
    fs: &dyn Vfs,
    dir: &Path,
    name: &str,
    bytes: &[u8],
) -> Result<(), PersistError> {
    let tmp = dir.join(format!("{name}.tmp"));
    fs.write(&tmp, bytes)?;
    fs.sync_file(&tmp)?;
    fs.rename(&tmp, &dir.join(name))?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Snapshot write.
// ---------------------------------------------------------------------------

/// What a successful [`write_snapshot`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotReport {
    /// Generation committed.
    pub generation: u64,
    /// Segment files written (excluding the manifest).
    pub segments: usize,
    /// Total bytes written (segments + manifest).
    pub bytes: u64,
}

fn snapshot_tables(t: &SsbTables) -> [&TableData; 5] {
    [&t.lineorder, &t.customer, &t.supplier, &t.part, &t.date]
}

/// Serialize every column of every table to checksummed segment files and
/// commit them with an atomic manifest rename, as a [`Shape::Tables`]
/// generation: [`write_generation`] over the tables' columns, each encoded
/// with `Column::encode(_, true)` on the way.
///
/// `Ok` means the generation is durable. A failure before the manifest
/// rename leaves it invisible. A failure of the final directory fsync
/// returns `Err` while the generation may already be visible, and may or
/// may not survive a crash: recovering either it or its predecessor is
/// then correct.
pub fn write_snapshot(dir: &Path, tables: &SsbTables) -> Result<SnapshotReport, PersistError> {
    write_snapshot_with(&StdFs, dir, tables)
}

/// [`write_snapshot`] over `fs`.
pub fn write_snapshot_with(
    fs: &dyn Vfs,
    dir: &Path,
    tables: &SsbTables,
) -> Result<SnapshotReport, PersistError> {
    write_snapshot_inner(fs, dir, tables, par::default_threads())
}

fn write_snapshot_inner(
    fs: &dyn Vfs,
    dir: &Path,
    tables: &SsbTables,
    threads: usize,
) -> Result<SnapshotReport, PersistError> {
    let segments = snapshot_tables(tables).into_iter().flat_map(|t| {
        let names = t.schema.columns.iter().map(|def| format!("{}.{}", t.schema.name, def.name));
        let images = t.columns.iter().map(|data| encode_segment(&Column::encode(data, true)));
        names.zip(images)
    });
    write_generation_inner(fs, dir, tables.config, Shape::Tables, segments, threads)
}

/// Commit the segment images `segments`, each under its name, as the next
/// generation of `dir`: every image is written and fsynced as its own file,
/// then the manifest that lists them is renamed into place, and one
/// directory fsync makes every rename durable. The new generation is
/// `latest + 1`; concurrent readers of older generations are unaffected
/// (generations are immutable once committed). [`write_snapshot`]'s
/// guarantees hold.
pub fn write_generation(
    dir: &Path,
    config: SsbConfig,
    shape: Shape,
    segments: impl Iterator<Item = (String, Vec<u8>)> + Send,
) -> Result<SnapshotReport, PersistError> {
    write_generation_inner(&StdFs, dir, config, shape, segments, par::default_threads())
}

/// One segment: its manifest entry and its file image.
type Segment = (ManifestEntry, Vec<u8>);

/// The kind, encoding and row count an image's header records.
fn geometry(image: &[u8]) -> (u8, u8, u64) {
    let mut rows = [0u8; 8];
    rows.copy_from_slice(&image[16..24]);
    (image[12], image[13], u64::from_le_bytes(rows))
}

/// The manifest entry of `name`'s `image`, as generation `generation` files
/// it.
fn entry_for(name: String, generation: u64, image: &[u8]) -> ManifestEntry {
    let (kind, enc, rows) = geometry(image);
    let (bytes, crc) = (image.len() as u64, trailing_crc(image));
    ManifestEntry { file: segment_file_name(&name, generation), name, kind, enc, rows, bytes, crc }
}

/// Write a generation, producing its images on a helper thread when
/// `threads > 1` and inline otherwise.
///
/// The helper drains `segments` (which encodes or frames each image as it
/// is asked for one) in manifest order and hands each image over a
/// `sync_channel(1)`: while the caller writes and fsyncs one image, one more
/// waits in the channel and the helper produces the next. Every [`Vfs`]
/// call stays on the caller's thread, in the order the inline writer makes
/// them, so both write the same files through the same calls. A failed
/// write drops the receiver, the helper's next send fails, and the scope
/// joins it before the error returns; a panicking producer ends the stream,
/// and the scope re-raises its panic before a manifest is written.
fn write_generation_inner(
    fs: &dyn Vfs,
    dir: &Path,
    config: SsbConfig,
    shape: Shape,
    segments: impl Iterator<Item = (String, Vec<u8>)> + Send,
    threads: usize,
) -> Result<SnapshotReport, PersistError> {
    fs.create_dir_all(dir)?;
    let generation = generations(fs, dir)?.last().copied().unwrap_or(0) + 1;
    let segments = segments.map(|(name, image)| (entry_for(name, generation, &image), image));
    let entries = if threads <= 1 {
        write_segments(fs, dir, segments)
    } else {
        thread::scope(|s| {
            let (tx, rx) = mpsc::sync_channel(1);
            s.spawn(move || {
                for segment in segments {
                    if tx.send(segment).is_err() {
                        break;
                    }
                }
            });
            write_segments(fs, dir, rx)
        })
    }?;
    let nsegs = entries.len();
    let mut total_bytes: u64 = entries.iter().map(|e| e.bytes).sum();
    let manifest = Manifest { generation, shape, sf: config.sf, seed: config.seed, entries };
    let image = encode_manifest(&manifest);
    total_bytes += image.len() as u64;
    write_file_atomic(fs, dir, &manifest_name(generation), &image)?;
    fs.sync_dir(dir)?;
    Ok(SnapshotReport { generation, segments: nsegs, bytes: total_bytes })
}

/// Write each segment as it arrives; the first failure stops the walk.
fn write_segments(
    fs: &dyn Vfs,
    dir: &Path,
    segments: impl IntoIterator<Item = Segment>,
) -> Result<Vec<ManifestEntry>, PersistError> {
    let mut entries = Vec::new();
    for (entry, image) in segments {
        write_file_atomic(fs, dir, &entry.file, &image)?;
        entries.push(entry);
    }
    Ok(entries)
}

// ---------------------------------------------------------------------------
// Loading & recovery.
// ---------------------------------------------------------------------------

/// What [`load_latest`] recovered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadReport {
    /// Generation that validated and was loaded.
    pub generation: u64,
    /// Segments read.
    pub segments: usize,
    /// Bytes read and checksummed.
    pub bytes: u64,
    /// Newer generations that failed validation and were skipped.
    pub fallbacks: u32,
}

/// The names in `dir`; a missing directory has none.
fn list_or_empty(fs: &dyn Vfs, dir: &Path) -> Result<Vec<String>, PersistError> {
    match fs.list(dir) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        listed => Ok(listed?),
    }
}

/// All committed generations in `dir`, ascending. A missing directory is
/// simply "no generations", not an error.
pub fn generations(fs: &dyn Vfs, dir: &Path) -> Result<Vec<u64>, PersistError> {
    let mut gens: Vec<u64> = list_or_empty(fs, dir)?
        .iter()
        .filter_map(|name| name.strip_prefix("MANIFEST-")?.parse().ok())
        .collect();
    gens.sort_unstable();
    gens.dedup();
    Ok(gens)
}

fn read_manifest(fs: &dyn Vfs, dir: &Path, gen: u64) -> Result<Manifest, PersistError> {
    let bytes = match fs.read(&dir.join(manifest_name(gen))) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(PersistError::NoSnapshot),
        Err(e) => return Err(e.into()),
    };
    let m = decode_manifest(&bytes)?;
    if m.generation != gen {
        return Err(corrupt(format!(
            "manifest {} claims generation {}",
            manifest_name(gen),
            m.generation
        )));
    }
    Ok(m)
}

fn build_table(
    schema: &TableSchema,
    cols: &mut HashMap<String, ColumnData>,
) -> Result<TableData, PersistError> {
    let mut columns = Vec::with_capacity(schema.arity());
    let mut rows: Option<usize> = None;
    for def in &schema.columns {
        let key = format!("{}.{}", schema.name, def.name);
        let data =
            cols.remove(&key).ok_or_else(|| corrupt(format!("manifest missing segment {key}")))?;
        if data.dtype() != def.dtype {
            return Err(corrupt(format!("segment {key} has wrong data type")));
        }
        match rows {
            None => rows = Some(data.len()),
            Some(r) if r != data.len() => {
                return Err(corrupt(format!("segment {key} length disagrees with its table")));
            }
            Some(_) => {}
        }
        columns.push(data);
    }
    Ok(TableData::new(schema.clone(), columns))
}

/// Read one manifest entry's image on the caller's thread.
fn read_segment(fs: &dyn Vfs, dir: &Path, e: &ManifestEntry) -> Result<Vec<u8>, PersistError> {
    match fs.read(&dir.join(&e.file)) {
        Ok(b) => Ok(b),
        Err(err) if err.kind() == io::ErrorKind::NotFound => {
            Err(corrupt(format!("segment file {} missing", e.file)))
        }
        Err(err) => Err(err.into()),
    }
}

/// Verify one segment image against its manifest entry and decode it. The
/// image is freed as soon as it is decoded.
fn decode_entry(e: &ManifestEntry, image: Vec<u8>) -> Result<Part, PersistError> {
    if image.len() as u64 != e.bytes {
        return Err(corrupt(format!("segment {} size does not match manifest", e.name)));
    }
    let part = decode_part(&image)?;
    if trailing_crc(&image) != e.crc {
        return Err(corrupt(format!("segment {} checksum differs from manifest pin", e.name)));
    }
    if geometry(&image) != (e.kind, e.enc, e.rows) {
        return Err(corrupt(format!("segment {} geometry differs from manifest", e.name)));
    }
    Ok(part)
}

/// A table segment's logical column, in storage order.
fn logical_column(e: &ManifestEntry, part: Part) -> Result<ColumnData, PersistError> {
    match part {
        Part::Column(Column::Int(ic)) => Ok(ColumnData::Int(ic.into_plain_ints())),
        Part::Column(Column::Str(sc)) => match sc.strs_at(0..sc.len() as u32, Strs::MAX_TEXT) {
            Some(strs) => Ok(ColumnData::Str(strs)),
            None => Err(corrupt(format!("segment {} decodes to more than 4 GiB of text", e.name))),
        },
        Part::Bytes(_) => Err(corrupt(format!("segment {} holds bytes, not a column", e.name))),
    }
}

/// Load generation `gen`, which must hold `shape`, turning each segment into
/// a `U` with `each` on `threads` workers.
///
/// The manifest is read and its shape checked before any segment is. It is
/// then worked through in batches of `threads` entries: the caller's thread
/// reads a batch's images in manifest order (every [`Vfs`] call stays on
/// it), then one [`Jobs`] job per image verifies and decodes it and runs
/// `each`. At most one batch of images is held at a time. The error reported
/// is the serial walk's: the first failing entry in manifest order, where a
/// read failure comes after every earlier entry's decode.
fn load_generation_inner<U: Send>(
    fs: &dyn Vfs,
    dir: &Path,
    gen: u64,
    shape: Shape,
    threads: usize,
    each: &(dyn Fn(&ManifestEntry, Part) -> Result<U, PersistError> + Sync),
) -> Result<(Manifest, HashMap<String, U>, u64), PersistError> {
    let m = read_manifest(fs, dir, gen)?;
    if m.shape != shape {
        return Err(corrupt(format!(
            "generation {gen} holds the {}, not the {}",
            m.shape.what(),
            shape.what()
        )));
    }
    let mut parts: HashMap<String, U> = HashMap::with_capacity(m.entries.len());
    let mut bytes = 0u64;
    for batch in m.entries.chunks(threads.max(1)) {
        let mut images = Vec::with_capacity(batch.len());
        let mut read_failure = None;
        for e in batch {
            match read_segment(fs, dir, e) {
                Ok(image) => images.push(image),
                Err(err) => {
                    read_failure = Some(err);
                    break;
                }
            }
        }
        let mut jobs = Jobs::new();
        let decoded: Vec<(&ManifestEntry, u64, Slot<_>)> = batch
            .iter()
            .zip(images)
            .map(|(e, image)| {
                let len = image.len() as u64;
                (e, len, jobs.add(move || each(e, decode_entry(e, image)?)))
            })
            .collect();
        jobs.run(threads);
        for (e, len, part) in decoded {
            if parts.insert(e.name.clone(), part.take()?).is_some() {
                return Err(corrupt(format!("duplicate segment {}", e.name)));
            }
            bytes += len;
        }
        if let Some(err) = read_failure {
            return Err(err);
        }
    }
    Ok((m, parts, bytes))
}

/// Every name left in `parts`: the segments a manifest lists that nothing
/// read.
fn no_unknown_segments<U>(parts: &HashMap<String, U>) -> Result<(), PersistError> {
    if parts.is_empty() {
        return Ok(());
    }
    let mut extra: Vec<&str> = parts.keys().map(String::as_str).collect();
    extra.sort_unstable();
    Err(corrupt(format!("manifest lists unknown segments: {}", extra.join(", "))))
}

/// Load the [`Shape::Tables`] generation `gen` on `threads` workers, each
/// segment decoded straight to its logical column.
fn load_tables(
    fs: &dyn Vfs,
    dir: &Path,
    gen: u64,
    threads: usize,
) -> Result<(SsbTables, usize, u64), PersistError> {
    let (m, mut cols, bytes) =
        load_generation_inner(fs, dir, gen, Shape::Tables, threads, &logical_column)?;
    let schema = star_schema();
    let lineorder = build_table(&schema.lineorder, &mut cols)?;
    let customer = build_table(&schema.customer, &mut cols)?;
    let supplier = build_table(&schema.supplier, &mut cols)?;
    let part = build_table(&schema.part, &mut cols)?;
    let date = build_table(&schema.date, &mut cols)?;
    no_unknown_segments(&cols)?;
    let tables = SsbTables {
        config: SsbConfig { sf: m.sf, seed: m.seed },
        schema,
        lineorder,
        customer,
        supplier,
        part,
        date,
    };
    Ok((tables, m.entries.len(), bytes))
}

/// Load exactly generation `gen` of logical tables, validating every
/// checksum and codec invariant. Fails typed on any damage — no fallback.
pub fn load_generation(fs: &dyn Vfs, dir: &Path, gen: u64) -> Result<SsbTables, PersistError> {
    load_tables(fs, dir, gen, par::default_threads()).map(|(t, _, _)| t)
}

/// Walk `dir`'s generations newest-first and return the first that `load`
/// loads; each one that fails is a fallback. [`PersistError::NoSnapshot`]
/// when no manifest exists at all, or the last error when every generation
/// fails.
fn walk<T>(
    fs: &dyn Vfs,
    dir: &Path,
    mut load: impl FnMut(u64) -> Result<(T, usize, u64), PersistError>,
) -> Result<(T, LoadReport), PersistError> {
    let mut fallbacks = 0u32;
    let mut last_err = PersistError::NoSnapshot;
    for &g in generations(fs, dir)?.iter().rev() {
        match load(g) {
            Ok((loaded, segments, bytes)) => {
                return Ok((loaded, LoadReport { generation: g, segments, bytes, fallbacks }));
            }
            Err(e) => {
                fallbacks += 1;
                last_err = e;
            }
        }
    }
    Err(last_err)
}

/// Load the newest [`Shape::Tables`] generation that validates end-to-end,
/// falling back to older generations when newer ones are damaged, hold an
/// encoded store or are written in another format. Returns
/// [`PersistError::NoSnapshot`] when no manifest exists at all, or the last
/// validation error when every generation fails.
pub fn load_latest(dir: &Path) -> Result<(SsbTables, LoadReport), PersistError> {
    load_latest_with(&StdFs, dir)
}

/// [`load_latest`] over `fs`.
pub fn load_latest_with(fs: &dyn Vfs, dir: &Path) -> Result<(SsbTables, LoadReport), PersistError> {
    walk(fs, dir, |g| load_tables(fs, dir, g, par::default_threads()))
}

/// A [`Shape::Store`] generation's segments, by name, for the store that
/// adopts them. Each accessor removes what it returns; a segment nothing
/// takes fails the load.
pub struct Parts {
    config: SsbConfig,
    parts: HashMap<String, Part>,
}

impl Parts {
    /// The configuration of the tables the store was built from.
    pub fn config(&self) -> SsbConfig {
        self.config
    }

    fn take(&mut self, name: &str) -> Result<Part, PersistError> {
        self.parts.remove(name).ok_or_else(|| corrupt(format!("manifest missing segment {name}")))
    }

    /// The column segment `name`.
    pub fn column(&mut self, name: &str) -> Result<Column, PersistError> {
        match self.take(name)? {
            Part::Column(column) => Ok(column),
            Part::Bytes(_) => Err(corrupt(format!("segment {name} holds bytes, not a column"))),
        }
    }

    /// The plain integer column segment `name`, as written by
    /// [`encode_ints_segment`].
    pub fn ints(&mut self, name: &str) -> Result<PlainInts, PersistError> {
        match self.column(name)? {
            Column::Int(IntColumn::Plain(values)) => Ok(values),
            _ => Err(corrupt(format!("segment {name} is not plain integers"))),
        }
    }

    /// The bytes segment `name`.
    pub fn bytes(&mut self, name: &str) -> Result<Vec<u8>, PersistError> {
        match self.take(name)? {
            Part::Bytes(bytes) => Ok(bytes),
            Part::Column(_) => Err(corrupt(format!("segment {name} holds a column, not bytes"))),
        }
    }
}

/// Load the newest [`Shape::Store`] generation that validates end-to-end and
/// that `adopt` accepts, falling back past damaged generations, generations
/// of logical tables and generations in another format, as [`load_latest`]
/// does. The loader checks each segment's CRC and codec and nothing more;
/// `adopt` takes the segments it needs from the [`Parts`].
pub fn load_latest_store<T>(
    dir: &Path,
    adopt: impl FnMut(&mut Parts) -> Result<T, PersistError>,
) -> Result<(T, LoadReport), PersistError> {
    load_latest_store_with(&StdFs, dir, adopt)
}

/// [`load_latest_store`] over `fs`.
pub fn load_latest_store_with<T>(
    fs: &dyn Vfs,
    dir: &Path,
    mut adopt: impl FnMut(&mut Parts) -> Result<T, PersistError>,
) -> Result<(T, LoadReport), PersistError> {
    let threads = par::default_threads();
    walk(fs, dir, |g| {
        let (m, parts, bytes) =
            load_generation_inner(fs, dir, g, Shape::Store, threads, &|_, part| Ok(part))?;
        let mut parts = Parts { config: SsbConfig { sf: m.sf, seed: m.seed }, parts };
        let store = adopt(&mut parts)?;
        no_unknown_segments(&parts.parts)?;
        Ok((store, m.entries.len(), bytes))
    })
}

/// Delete all but the newest `keep` generations (manifest + segment files),
/// plus any stale `.tmp` files left behind by a crash mid-write. Returns
/// the number of files removed.
pub fn prune(dir: &Path, keep: usize) -> Result<usize, PersistError> {
    prune_with(&StdFs, dir, keep)
}

/// [`prune`] over `fs`.
pub fn prune_with(fs: &dyn Vfs, dir: &Path, keep: usize) -> Result<usize, PersistError> {
    let gens = generations(fs, dir)?;
    let cutoff = if gens.len() > keep { gens[gens.len() - keep] } else { u64::MIN };
    let mut removed = 0usize;
    for name in list_or_empty(fs, dir)? {
        let dead = if name.ends_with(".tmp") {
            true
        } else if let Some(rest) = name.strip_prefix("MANIFEST-") {
            rest.parse::<u64>().map(|g| g < cutoff).unwrap_or(false)
        } else if let Some(stem) = name.strip_suffix(".seg") {
            match stem.rfind(".g") {
                Some(i) => stem[i + 2..].parse::<u64>().map(|g| g < cutoff).unwrap_or(false),
                None => false,
            }
        } else {
            false
        };
        if dead {
            fs.remove(&dir.join(&name))?;
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::Column;
    use std::cell::RefCell;
    use std::fs;
    use std::path::PathBuf;

    /// The one-byte table loop `crc64` replaced: the reference it must equal.
    fn crc64_bytewise(bytes: &[u8]) -> u64 {
        let mut crc = !0u64;
        for &b in bytes {
            crc = CRC64_TABLES[0][((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn word_crc_equals_the_byte_loop_at_every_length_and_alignment() {
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA, "the CRC-64/XZ check value");
        let mut x = 0x5EED_u64;
        let buf: Vec<u8> = (0..80)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=72 {
                let bytes = &buf[start..start + len];
                assert_eq!(crc64(bytes), crc64_bytewise(bytes), "start {start} len {len}");
            }
        }
    }

    /// A one-directory in-memory [`Vfs`] that logs every call, and fails
    /// the `fail_at`-th write or fsync (counting from 0) when one is set.
    #[derive(Default)]
    struct MemFs {
        files: RefCell<HashMap<PathBuf, Vec<u8>>>,
        calls: RefCell<Vec<(&'static str, PathBuf)>>,
        fail_at: Option<usize>,
    }

    impl MemFs {
        fn log(&self, call: &'static str, path: &Path) {
            self.calls.borrow_mut().push((call, path.to_path_buf()));
        }

        /// Log a write or fsync, failing it when it is the `fail_at`-th.
        fn durable(&self, call: &'static str, path: &Path) -> io::Result<()> {
            let nth = self.calls.borrow().iter().filter(|(c, _)| c.starts_with("write")).count();
            self.log(call, path);
            match self.fail_at {
                Some(k) if k == nth => Err(io::Error::other(format!("injected failure {k}"))),
                _ => Ok(()),
            }
        }

        /// The paths read, in order.
        fn reads(&self) -> Vec<PathBuf> {
            let calls = self.calls.borrow();
            calls.iter().filter(|(c, _)| *c == "read").map(|(_, p)| p.clone()).collect()
        }
    }

    impl Vfs for MemFs {
        fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
            self.log("create_dir_all", dir);
            Ok(())
        }
        fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            self.durable("write", path)?;
            self.files.borrow_mut().insert(path.to_path_buf(), bytes.to_vec());
            Ok(())
        }
        fn sync_file(&self, path: &Path) -> io::Result<()> {
            self.durable("write:sync_file", path)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.log("rename", to);
            let mut files = self.files.borrow_mut();
            let bytes = files.remove(from).ok_or(io::ErrorKind::NotFound)?;
            files.insert(to.to_path_buf(), bytes);
            Ok(())
        }
        fn sync_dir(&self, dir: &Path) -> io::Result<()> {
            self.durable("write:sync_dir", dir)
        }
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            self.log("read", path);
            self.files.borrow().get(path).cloned().ok_or_else(|| io::ErrorKind::NotFound.into())
        }
        fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
            self.log("list", dir);
            let files = self.files.borrow();
            Ok(files.keys().filter_map(|p| Some(p.file_name()?.to_str()?.to_string())).collect())
        }
        fn remove(&self, path: &Path) -> io::Result<()> {
            self.log("remove", path);
            self.files
                .borrow_mut()
                .remove(path)
                .map(drop)
                .ok_or_else(|| io::ErrorKind::NotFound.into())
        }
    }

    #[test]
    fn a_damaged_generation_reports_the_serial_walks_error_at_any_thread_count() {
        let dir = Path::new("/snapshot");
        let fs = MemFs::default();
        let tables = SsbConfig { sf: 0.0002, seed: 7 }.generate();
        write_snapshot_with(&fs, dir, &tables).unwrap();
        let entries = read_manifest(&fs, dir, 1).unwrap().entries;
        // Entry 3: one payload bit flipped under a recomputed, self-consistent
        // CRC, so only the manifest's pin can tell. Entry 7: the file is gone.
        let path = dir.join(&entries[3].file);
        let image = fs.files.borrow()[&path].clone();
        let flipped = (SEGMENT_HEADER_BYTES..image.len() - CRC_BYTES)
            .map(|at| {
                let mut bad = image[..image.len() - CRC_BYTES].to_vec();
                bad[at] ^= 1;
                let crc = crc64(&bad);
                put_u64(&mut bad, crc);
                bad
            })
            .find(|bad| decode_segment(bad).is_ok())
            .expect("some payload bit flip still decodes");
        fs.files.borrow_mut().insert(path, flipped);
        fs.remove(&dir.join(&entries[7].file)).unwrap();

        let want = format!("segment {} checksum differs from manifest pin", entries[3].name);
        let mut read_logs = Vec::new();
        // At 8 threads one batch reads entries 0..=7, fails to read 7 and
        // still reports 3, which it decoded first.
        for threads in [1, 4, 8] {
            fs.calls.borrow_mut().clear();
            match load_tables(&fs, dir, 1, threads) {
                Err(PersistError::Corrupt { detail }) => assert_eq!(detail, want, "{threads}"),
                other => panic!("{threads} threads: {:?}", other.map(|(_, n, b)| (n, b))),
            }
            read_logs.push(fs.reads());
        }
        let reads_through = |last: usize| {
            let mut reads = vec![dir.join(manifest_name(1))];
            reads.extend(entries[..=last].iter().map(|e| dir.join(&e.file)));
            reads
        };
        assert_eq!(read_logs, [reads_through(3), reads_through(3), reads_through(7)]);
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cvr-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_payloads() -> Vec<Column> {
        let rle_src: Vec<i64> = (0..400).map(|i| i / 50).collect();
        let packed_src: Vec<i64> = (0..300).map(|i| 1000 + (i * 7) % 90).collect();
        let strs: Vec<String> = (0..120).map(|i| format!("value-{:03}", i % 40)).collect();
        vec![
            Column::Int(IntColumn::plain(vec![-5, 0, 7, 1 << 40, i64::MIN, i64::MAX])),
            Column::Int(IntColumn::plain_fixed(vec![1, 2, 3])),
            Column::Int(IntColumn::rle(&rle_src)),
            Column::Int(IntColumn::packed(&packed_src).expect("packable")),
            Column::Str(StrColumn::plain(strs.clone())),
            Column::Str(StrColumn::dict(&strs)),
        ]
    }

    #[test]
    fn every_codec_round_trips_byte_identically() {
        for payload in sample_payloads() {
            let image = encode_segment(&payload);
            let back = decode_segment(&image).expect("intact segment decodes");
            assert_eq!(back, payload);
            // Re-encoding the decoded payload reproduces the exact image.
            assert_eq!(encode_segment(&back), image);
        }
    }

    #[test]
    fn corrupt_segments_fail_typed_never_decode() {
        for payload in sample_payloads() {
            let image = encode_segment(&payload);
            // Truncations at every structural boundary class.
            for cut in [0, 1, 7, 8, 12, 15, 31, 32, image.len() - 9, image.len() - 1] {
                if cut >= image.len() {
                    continue;
                }
                assert!(
                    decode_segment(&image[..cut]).is_err(),
                    "truncation to {cut} bytes must be detected"
                );
            }
            // A bit flip anywhere must be caught by the CRC.
            for pos in [0, 9, 14, 16, image.len() / 2, image.len() - 1] {
                let mut bad = image.clone();
                bad[pos] ^= 0x10;
                match decode_segment(&bad) {
                    Err(PersistError::Corrupt { .. }) => {}
                    other => panic!("bit flip at {pos} not detected: {other:?}"),
                }
            }
        }
        // A kind tag this code never writes, under a valid checksum.
        let mut bad = encode_segment(&sample_payloads()[0]);
        bad.truncate(bad.len() - CRC_BYTES);
        bad[12] = 3;
        let crc = crc64(&bad);
        put_u64(&mut bad, crc);
        match decode_segment(&bad) {
            Err(PersistError::Corrupt { detail }) => {
                assert!(detail.contains("unknown segment kind 3"))
            }
            other => panic!("a kind-3 segment decoded: {other:?}"),
        }
    }

    #[test]
    fn a_string_segment_decodes_to_its_values_within_the_text_bound() {
        let values: Vec<String> = (0..120).map(|i| format!("value-{:03}", i % 40)).collect();
        let text: usize = values.iter().map(String::len).sum();
        let all = || 0..values.len() as u32;
        for sc in [StrColumn::plain(values.clone()), StrColumn::dict(&values)] {
            assert_eq!(sc.strs_at(all(), Strs::MAX_TEXT), Some(Strs::from(values.clone())));
            assert_eq!(sc.strs_at(all(), text), Some(Strs::from(values.clone())));
            assert_eq!(sc.strs_at(all(), text - 1), None, "one byte past the bound");
            let reversed: Vec<&String> = values.iter().rev().collect();
            assert_eq!(sc.strs_at(all().rev(), text), Some(Strs::from(reversed)));
        }
        assert_eq!(StrColumn::plain(Vec::new()).strs_at(0..0, 0), Some(Strs::new()));
    }

    fn corrupt_detail(image: &[u8]) -> String {
        match decode_segment(image) {
            Err(PersistError::Corrupt { detail }) => detail,
            other => panic!("a damaged image decoded: {other:?}"),
        }
    }

    /// `image` with its payload replaced by `payload`, its length and CRC
    /// recomputed.
    fn with_payload(image: &[u8], payload: &[u8]) -> Vec<u8> {
        let mut out = image[..SEGMENT_HEADER_BYTES].to_vec();
        out[24..32].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        let crc = crc64(&out);
        put_u64(&mut out, crc);
        out
    }

    #[test]
    fn every_codec_writes_its_encoded_bytes_after_a_fixed_preamble() {
        let strs: Vec<String> = (0..120).map(|i| format!("value-{:03}", i % 40)).collect();
        let rle_src: Vec<i64> = (0..400).map(|i| i / 50).collect();
        let packed_src: Vec<i64> = (0..300).map(|i| 1000 + (i * 7) % 90).collect();
        let plain = |values: Vec<i64>, width: u8| {
            let column = IntColumn::plain(values);
            assert!(matches!(&column, IntColumn::Plain(p) if p.width() == width));
            Column::Int(column)
        };
        // (codec, column, preamble bytes)
        let cases = [
            ("plain, width 1", plain(vec![1, 200, 3], 1), 1),
            ("plain, width 2", plain(vec![1, 60_000, 3], 2), 1),
            ("plain, width 4", plain(vec![1, 1 << 20, 3, 4], 4), 1),
            ("plain, width 8", plain(vec![-5, 1 << 40, i64::MIN, i64::MAX], 8), 1),
            ("RLE", Column::Int(IntColumn::rle(&rle_src)), 0),
            ("packed", Column::Int(IntColumn::packed(&packed_src).expect("packable")), 8 + 1),
            ("plain strings", Column::Str(StrColumn::plain(strs.clone())), 0),
            ("dictionary", Column::Str(StrColumn::dict(&strs)), 4 + 1),
        ];
        for (codec, column, preamble) in cases {
            let image = encode_segment(&column);
            let want = SEGMENT_HEADER_BYTES as u64 + preamble + column.encoded_bytes() + 8;
            assert_eq!(image.len() as u64, want, "{codec}");
            assert_eq!(decode_segment(&image).expect("decodes"), column, "{codec}");
        }
    }

    #[test]
    fn format_2_damage_under_a_valid_checksum_fails_typed() {
        let plain = encode_segment(&Column::Int(IntColumn::plain(vec![1, 60_000, 3])));
        let values = &plain[SEGMENT_HEADER_BYTES + 1..plain.len() - CRC_BYTES];
        for width in [0u8, 3, 5, 16] {
            let detail = corrupt_detail(&with_payload(&plain, &[&[width], values].concat()));
            assert_eq!(detail, format!("invalid plain width {width}"));
        }
        // Three values at width 2 are 6 bytes: read at width 1 or 4, or cut
        // by one value, they are not rows x width.
        for (width, values) in [(1u8, values), (4, values), (2, &values[..4])] {
            let detail = corrupt_detail(&with_payload(&plain, &[&[width], values].concat()));
            assert_eq!(detail, format!("plain payload is not 3 rows x {width} bytes"));
        }

        // Two runs of 50, each a value i64 and a length u32.
        let src: Vec<i64> = [[7; 50], [9; 50]].concat();
        let rle = encode_segment(&Column::Int(IntColumn::rle(&src)));
        let runs = rle[SEGMENT_HEADER_BYTES..rle.len() - CRC_BYTES].to_vec();
        let with_second_len = |len: u32| {
            let mut runs = runs.clone();
            runs[20..24].copy_from_slice(&len.to_le_bytes());
            with_payload(&rle, &runs)
        };
        for len in [49, 51, u32::MAX] {
            let detail = corrupt_detail(&with_second_len(len));
            assert_eq!(detail, "run lengths do not sum to the row count", "length {len}");
        }
        assert_eq!(corrupt_detail(&with_second_len(0)), "zero-length run");
        let detail = corrupt_detail(&with_payload(&rle, &runs[..12]));
        assert_eq!(detail, "run lengths do not sum to the row count", "one run dropped");
        let detail = corrupt_detail(&with_payload(&rle, &runs[..20]));
        assert_eq!(detail, "RLE payload is not whole runs");
    }

    /// A format-1 image: the layout this build no longer reads, with every
    /// plain value as 8 bytes behind a width byte and a count.
    fn format_1_plain_segment(values: &[i64]) -> Vec<u8> {
        let mut payload = vec![1u8];
        put_u32(&mut payload, values.len() as u32);
        values.iter().for_each(|&v| put_i64(&mut payload, v));
        let mut out = SEGMENT_MAGIC.to_vec();
        put_u32(&mut out, 1);
        out.extend_from_slice(&[0, 0, 0, 0]);
        put_u64(&mut out, values.len() as u64);
        put_u64(&mut out, payload.len() as u64);
        out.extend_from_slice(&payload);
        let crc = crc64(&out);
        put_u64(&mut out, crc);
        out
    }

    #[test]
    fn a_format_1_segment_or_manifest_is_refused_naming_its_format() {
        let detail = corrupt_detail(&format_1_plain_segment(&[1, 2, 3]));
        assert_eq!(detail, "unsupported segment format 1 (this build reads format 2)");
        let manifest = Manifest {
            generation: 1,
            shape: Shape::Tables,
            sf: 0.01,
            seed: 1,
            entries: Vec::new(),
        };
        let old = {
            let image = encode_manifest(&manifest);
            let mut bad = image[..image.len() - CRC_BYTES].to_vec();
            bad[8..12].copy_from_slice(&1u32.to_le_bytes());
            let crc = crc64(&bad);
            put_u64(&mut bad, crc);
            bad
        };
        assert_eq!(decode_manifest(&encode_manifest(&manifest)), Ok(manifest));
        match decode_manifest(&old) {
            Err(PersistError::Corrupt { detail }) => {
                assert_eq!(detail, "unsupported manifest format 1 (this build reads format 3)")
            }
            other => panic!("a format-1 manifest decoded: {other:?}"),
        }
    }

    /// The inline writer (one thread) and the pipelined one write the same
    /// bytes through the same [`Vfs`] calls; a write or fsync that fails at
    /// any point returns its error after the same calls. A pipelined call
    /// that returns has joined its helper: one left blocked on the channel
    /// would hang the scope.
    #[test]
    fn the_pipelined_writer_makes_the_inline_writers_calls_and_files() {
        let dir = Path::new("/snapshot");
        let tables = SsbConfig { sf: 0.0002, seed: 5 }.generate();
        let run = |threads: usize, fail_at: Option<usize>| {
            let fs = MemFs { fail_at, ..MemFs::default() };
            let result = write_snapshot_inner(&fs, dir, &tables, threads);
            (result, fs.calls.take(), fs.files.take())
        };
        let (inline, calls, files) = run(1, None);
        let report = inline.expect("an inline snapshot");
        // Two durable calls a file, then the directory's fsync.
        let durable = 2 * (report.segments + 1) + 1;
        assert_eq!(calls.iter().filter(|(c, _)| c.starts_with("write")).count(), durable);
        for threads in [2, 4] {
            let (piped, piped_calls, piped_files) = run(threads, None);
            assert_eq!(piped, Ok(report), "{threads} threads");
            assert_eq!(piped_calls, calls, "{threads} threads");
            assert_eq!(piped_files, files, "{threads} threads");
        }
        for k in 0..durable {
            let (inline, inline_calls, _) = run(1, Some(k));
            let (piped, piped_calls, _) = run(2, Some(k));
            let want = PersistError::Io(format!("injected failure {k}"));
            assert_eq!(inline, Err(want.clone()), "inline, failure {k}");
            assert_eq!(piped, Err(want), "pipelined, failure {k}");
            assert_eq!(piped_calls, inline_calls, "failure {k}");
            let last = inline_calls.iter().filter(|(c, _)| c.starts_with("write")).count();
            assert_eq!(last, k + 1, "the walk stops at the failing call");
        }
    }

    #[test]
    fn snapshot_load_round_trip_is_lossless() {
        let dir = temp_dir("roundtrip");
        let tables = SsbConfig::with_scale(0.01).generate();
        let report = write_snapshot(&dir, &tables).unwrap();
        assert_eq!(report.generation, 1);
        assert_eq!(report.segments, 17 + 8 + 7 + 9 + 17);
        // Each file is the bytes the store charges its column, framed.
        let charged: u64 = snapshot_tables(&tables)
            .iter()
            .flat_map(|t| &t.columns)
            .map(|data| {
                let column = Column::encode(data, true);
                let framing = (SEGMENT_HEADER_BYTES + CRC_BYTES) as u64;
                framing + preamble_bytes(&column) + column.encoded_bytes()
            })
            .sum();
        let manifest = fs::metadata(dir.join(manifest_name(1))).unwrap().len();
        assert_eq!(report.bytes, charged + manifest);
        let (loaded, load) = load_latest(&dir).unwrap();
        assert_eq!(load.generation, 1);
        assert_eq!(load.fallbacks, 0);
        assert_eq!(load.segments, report.segments);
        assert_eq!(loaded.config.sf, tables.config.sf);
        assert_eq!(loaded.config.seed, tables.config.seed);
        for (a, b) in snapshot_tables(&loaded).iter().zip(snapshot_tables(&tables)) {
            assert_eq!(a.schema.name, b.schema.name);
            assert_eq!(a.columns, b.columns, "table {} differs after reload", b.schema.name);
            // Each integer column comes back at the width the generator held.
            for (x, y) in a.columns.iter().zip(&b.columns) {
                if let (ColumnData::Int(x), ColumnData::Int(y)) = (x, y) {
                    assert_eq!(x, y, "table {} reloads a column at another width", b.schema.name);
                }
            }
        }
        // Logical equality implies re-encoded physical equality too.
        let c = Column::encode(tables.lineorder.column("lo_extendedprice"), true);
        let l = Column::encode(loaded.lineorder.column("lo_extendedprice"), true);
        assert_eq!(c, l);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ints_and_bytes_segments_round_trip() {
        for values in [PlainInts::U8(vec![1, 2]), PlainInts::U32(vec![7, 1 << 20, 0])] {
            let image = with_plain_values!(&values, |v| encode_ints_segment(v));
            assert_eq!(image, encode_segment(&Column::Int(IntColumn::Plain(values.clone()))));
            assert_eq!(
                decode_part(&image),
                Ok(Part::Column(Column::Int(IntColumn::Plain(values))))
            );
        }
        for bytes in [&b""[..], b"catalog"] {
            let image = encode_bytes_segment(bytes);
            assert_eq!(image.len(), SEGMENT_HEADER_BYTES + bytes.len() + CRC_BYTES);
            assert_eq!(decode_part(&image), Ok(Part::Bytes(bytes.to_vec())));
            assert_eq!(corrupt_detail(&image), "segment holds bytes, not a column");
        }
        // A bytes segment whose row count is not its length.
        let mut bad = encode_bytes_segment(b"abc");
        bad.truncate(bad.len() - CRC_BYTES);
        bad[16] = 2;
        let crc = crc64(&bad);
        put_u64(&mut bad, crc);
        assert_eq!(
            decode_part(&bad),
            Err(corrupt("bytes segment geometry is not its length")),
            "rows 2 over 3 bytes"
        );
    }

    /// A store-shaped generation loads through [`load_latest_store`] segment
    /// for segment, and each entry point falls back past the other shape,
    /// naming it, without reading a segment of it.
    #[test]
    fn each_shape_loads_only_through_its_own_entry_point() {
        let dir = Path::new("/snapshot");
        let fs = MemFs::default();
        let tables = SsbConfig { sf: 0.0002, seed: 9 }.generate();
        let config = tables.config;
        let column = Column::encode(tables.lineorder.column("lo_quantity"), true);
        let keys = PlainInts::U16(vec![3, 1, 2]);
        let store = || {
            let segments = [
                ("lineorder.lo_quantity".to_string(), encode_segment(&column)),
                ("customer.keys".to_string(), encode_ints_segment(&[3u16, 1, 2])),
                ("catalog".to_string(), encode_bytes_segment(b"stats")),
            ];
            write_generation_inner(&fs, dir, config, Shape::Store, segments.into_iter(), 2)
        };
        let adopt = |parts: &mut Parts| {
            assert_eq!(parts.config().seed, 9);
            Ok((
                parts.column("lineorder.lo_quantity")?,
                parts.ints("customer.keys")?,
                parts.bytes("catalog")?,
            ))
        };
        assert_eq!(store().unwrap().generation, 1);
        write_snapshot_with(&fs, dir, &tables).unwrap();

        let (loaded, report) = load_latest_store_with(&fs, dir, adopt).unwrap();
        assert_eq!(loaded, (column.clone(), keys.clone(), b"stats".to_vec()));
        assert_eq!((report.generation, report.fallbacks, report.segments), (1, 1, 3));

        store().unwrap();
        fs.calls.borrow_mut().clear();
        let (_, report) = load_latest_with(&fs, dir).unwrap();
        assert_eq!((report.generation, report.fallbacks), (2, 1));
        assert_eq!(fs.reads()[0], dir.join(manifest_name(3)), "generation 3 read first");
        assert!(!fs.reads()[1].to_string_lossy().contains(".g3."), "no segment of it");

        let err = load_tables(&fs, dir, 3, 1).map(|_| ()).unwrap_err();
        assert_eq!(err, corrupt("generation 3 holds the encoded store, not the logical tables"));
        let err = load_latest_store_with(&fs, dir, |_| Ok(())).map(|_| ()).unwrap_err();
        let unread =
            "manifest lists unknown segments: catalog, customer.keys, lineorder.lo_quantity";
        assert_eq!(err, corrupt(unread), "a segment nothing takes fails its generation");
        let fs = MemFs::default();
        write_snapshot_with(&fs, dir, &tables).unwrap();
        let err = load_latest_store_with(&fs, dir, adopt).map(|_| ()).unwrap_err();
        assert_eq!(err, corrupt("generation 1 holds the logical tables, not the encoded store"));
    }

    #[test]
    fn generations_accumulate_and_prune() {
        let dir = temp_dir("generations");
        let tables = SsbConfig { sf: 0.0002, seed: 3 }.generate();
        for want in 1..=3u64 {
            let r = write_snapshot(&dir, &tables).unwrap();
            assert_eq!(r.generation, want);
        }
        assert_eq!(generations(&StdFs, &dir).unwrap(), vec![1, 2, 3]);
        let removed = prune(&dir, 2).unwrap();
        assert!(removed > 0);
        assert_eq!(generations(&StdFs, &dir).unwrap(), vec![2, 3]);
        // Pruned generation is gone; survivors still load.
        assert!(matches!(load_generation(&StdFs, &dir, 1), Err(PersistError::NoSnapshot)));
        assert!(load_generation(&StdFs, &dir, 3).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_or_missing_directory_reports_no_snapshot() {
        let dir = temp_dir("empty");
        assert!(matches!(load_latest(&dir), Err(PersistError::NoSnapshot)));
        let missing = dir.join("does-not-exist");
        assert!(matches!(load_latest(&missing), Err(PersistError::NoSnapshot)));
        assert_eq!(generations(&StdFs, &missing).unwrap(), Vec::<u64>::new());
        let _ = fs::remove_dir_all(&dir);
    }
}
