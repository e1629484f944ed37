//! Durable on-disk snapshots: checksummed segment files + atomic manifests.
//!
//! Everything upstream of this module lives in memory — every process start
//! regenerates SSB from scratch. This module gives the store a crash-safe
//! persistence substrate:
//!
//! * **Segment files** — one file per encoded column (or raw heap/index
//!   image), laid out as `magic | format | kind | enc | rows | payload_len |
//!   payload | crc64`. The CRC covers every byte before it, so torn writes
//!   and bit flips are detected before a single value is decoded.
//! * **Manifest** — `MANIFEST-<generation>` lists every segment with its
//!   file name, geometry, and a *pinned copy* of its CRC; the manifest
//!   carries its own trailing CRC. Each file is written as `{name}.tmp`,
//!   fsynced and renamed over `name`; once the manifest is renamed, one
//!   directory fsync makes every rename durable. A snapshot is visible iff
//!   its manifest rename completed, so that rename is the commit point.
//! * **Recovery** — [`load_latest`] walks generations newest-first and
//!   returns the first one that validates end-to-end; a damaged newest
//!   generation falls back to its predecessor (counted in
//!   [`LoadReport::fallbacks`]) instead of ever decoding corrupt bytes.
//!
//! Every filesystem call goes through one [`Vfs`]. The entry points without
//! a `Vfs` argument run over [`StdFs`]; `crates/storage/tests/crash_states.rs`
//! runs the `_with` forms over an in-memory recorder and loads every state a
//! crash, a lying disk or a failing fsync can leave.
//!
//! This is deliberately a *snapshot* store, not a log: generations are
//! immutable once committed, which is exactly the segment-swap seam a
//! delta-store/tuple-mover write path needs (swap = write new generation,
//! flip manifest).

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::OnceLock;

use cvr_data::{star_schema, ColumnData, SsbConfig, SsbTables, TableData, TableSchema};

use crate::encode::{Column, IntColumn, PlainInts, PlainValue, Run, StrColumn};
use crate::packed::PackedInts;
use crate::with_plain_values;

mod vfs;

pub use vfs::{StdFs, Vfs};

/// Segment file magic (8 bytes, includes format family).
pub const SEGMENT_MAGIC: &[u8; 8] = b"CVRSEG1\0";
/// Manifest file magic.
pub const MANIFEST_MAGIC: &[u8; 8] = b"CVRMAN1\0";
/// On-disk format version for both segments and manifests.
pub const FORMAT_VERSION: u32 = 1;

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

fn crc64_table() -> &'static [u64; 256] {
    static TABLE: OnceLock<[u64; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u64; 256];
        let mut i = 0u64;
        while i < 256 {
            let mut crc = i;
            for _ in 0..8 {
                crc = if crc & 1 == 1 { (crc >> 1) ^ CRC64_POLY } else { crc >> 1 };
            }
            table[i as usize] = crc;
            i += 1;
        }
        table
    })
}

/// CRC64/XZ (reflected ECMA-182) over `bytes`.
pub fn crc64(bytes: &[u8]) -> u64 {
    let table = crc64_table();
    let mut crc = !0u64;
    for &b in bytes {
        crc = table[((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

// ---------------------------------------------------------------------------
// Little-endian put/take helpers.
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked cursor over untrusted bytes; every overrun is a typed
/// [`PersistError::Corrupt`], never a panic.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
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

    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, PersistError> {
        Ok(u16::from_le_bytes(self.array()?))
    }
    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    fn i64(&mut self) -> Result<i64, PersistError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    fn utf8(&mut self, n: usize) -> Result<&'a str, PersistError> {
        std::str::from_utf8(self.take(n)?).map_err(|_| corrupt("invalid utf-8 in record"))
    }

    fn done(&self) -> Result<(), PersistError> {
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

/// The logical content of one segment file.
#[derive(Debug, Clone, PartialEq)]
pub enum SegmentPayload {
    /// An encoded integer column (plain / RLE / packed).
    Int(IntColumn),
    /// An encoded string column (plain / dictionary).
    Str(StrColumn),
    /// An opaque byte image (heap file or index snapshot); the persist
    /// layer checksums it but does not interpret it.
    Raw(Vec<u8>),
}

impl SegmentPayload {
    /// On-disk `kind` tag.
    pub fn kind(&self) -> u8 {
        match self {
            SegmentPayload::Int(_) => 0,
            SegmentPayload::Str(_) => 1,
            SegmentPayload::Raw(_) => 2,
        }
    }

    /// On-disk `enc` tag (encoding within the kind).
    pub fn enc(&self) -> u8 {
        match self {
            SegmentPayload::Int(IntColumn::Plain { .. }) => 0,
            SegmentPayload::Int(IntColumn::Rle { .. }) => 1,
            SegmentPayload::Int(IntColumn::Packed { .. }) => 2,
            SegmentPayload::Str(StrColumn::Plain { .. }) => 0,
            SegmentPayload::Str(StrColumn::Dict { .. }) => 1,
            SegmentPayload::Raw(_) => 0,
        }
    }

    /// Logical row count recorded in the header (byte length for raw
    /// images).
    pub fn rows(&self) -> u64 {
        match self {
            SegmentPayload::Int(ic) => ic.len() as u64,
            SegmentPayload::Str(sc) => sc.len() as u64,
            SegmentPayload::Raw(b) => b.len() as u64,
        }
    }
}

fn encode_int_payload(out: &mut Vec<u8>, ic: &IntColumn) {
    match ic {
        IntColumn::Plain(values) => {
            out.push(values.width());
            put_u32(out, values.len() as u32);
            with_plain_values!(values, |vs| for v in vs {
                put_i64(out, v.widen());
            });
        }
        IntColumn::Rle { runs, num_values } => {
            put_u32(out, *num_values);
            put_u32(out, runs.len() as u32);
            for r in runs {
                put_i64(out, r.value);
                put_u32(out, r.start);
                put_u32(out, r.len);
            }
        }
        IntColumn::Packed { reference, packed } => {
            put_i64(out, *reference);
            out.push(packed.value_bits());
            put_u32(out, packed.len());
            put_u32(out, packed.words().len() as u32);
            for &w in packed.words() {
                put_u64(out, w);
            }
        }
    }
}

fn decode_packed(r: &mut Reader<'_>) -> Result<PackedInts, PersistError> {
    let value_bits = r.u8()?;
    let len = r.u32()?;
    let nwords = r.u32()? as usize;
    if nwords > r.buf.len() / 8 + 1 {
        return Err(corrupt("packed word count exceeds payload"));
    }
    let mut words = Vec::with_capacity(nwords);
    for _ in 0..nwords {
        words.push(r.u64()?);
    }
    PackedInts::from_raw_parts(words, len, value_bits).map_err(corrupt)
}

/// `n` plain values, each stored as 8 bytes, narrowed to `T` as they are
/// read; a value that does not fit `T` is corruption.
fn decode_plain<T: PlainValue>(r: &mut Reader<'_>, n: usize) -> Result<Vec<T>, PersistError> {
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        let v = r.i64()?;
        values
            .push(T::narrow(v).ok_or_else(|| corrupt("plain value exceeds recorded byte width"))?);
    }
    Ok(values)
}

fn decode_int_payload(enc: u8, r: &mut Reader<'_>) -> Result<IntColumn, PersistError> {
    match enc {
        0 => {
            let width = r.u8()?;
            let n = r.u32()? as usize;
            if n > r.buf.len() / 8 + 1 {
                return Err(corrupt("plain value count exceeds payload"));
            }
            Ok(IntColumn::Plain(match width {
                1 => PlainInts::U8(decode_plain(r, n)?),
                2 => PlainInts::U16(decode_plain(r, n)?),
                4 => PlainInts::U32(decode_plain(r, n)?),
                8 => PlainInts::I64(decode_plain(r, n)?),
                _ => return Err(corrupt(format!("invalid plain width {width}"))),
            }))
        }
        1 => {
            let num_values = r.u32()?;
            let nruns = r.u32()? as usize;
            if nruns > r.buf.len() / 16 + 1 {
                return Err(corrupt("run count exceeds payload"));
            }
            let mut runs = Vec::with_capacity(nruns);
            let mut next_start = 0u64;
            for _ in 0..nruns {
                let value = r.i64()?;
                let start = r.u32()?;
                let len = r.u32()?;
                if len == 0 {
                    return Err(corrupt("zero-length run"));
                }
                if start as u64 != next_start {
                    return Err(corrupt("runs do not tile the column"));
                }
                next_start += len as u64;
                runs.push(Run { value, start, len });
            }
            if next_start != num_values as u64 {
                return Err(corrupt("run total does not match row count"));
            }
            Ok(IntColumn::Rle { runs, num_values })
        }
        2 => {
            let reference = r.i64()?;
            let packed = decode_packed(r)?;
            Ok(IntColumn::Packed { reference, packed })
        }
        other => Err(corrupt(format!("unknown int encoding tag {other}"))),
    }
}

fn encode_str_payload(out: &mut Vec<u8>, sc: &StrColumn) {
    match sc {
        StrColumn::Plain { values, bytes: _ } => {
            put_u32(out, values.len() as u32);
            for v in values {
                put_u32(out, v.len() as u32);
                out.extend_from_slice(v.as_bytes());
            }
        }
        StrColumn::Dict { dict, codes } => {
            put_u32(out, dict.len() as u32);
            for v in dict {
                put_u32(out, v.len() as u32);
                out.extend_from_slice(v.as_bytes());
            }
            out.push(codes.value_bits());
            put_u32(out, codes.len());
            put_u32(out, codes.words().len() as u32);
            for &w in codes.words() {
                put_u64(out, w);
            }
        }
    }
}

fn decode_strings(r: &mut Reader<'_>, what: &str) -> Result<Vec<Box<str>>, PersistError> {
    let n = r.u32()? as usize;
    if n > r.buf.len() + 1 {
        return Err(corrupt(format!("{what} count exceeds payload")));
    }
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.u32()? as usize;
        if len > 255 {
            return Err(corrupt(format!("{what} entry longer than 255 bytes")));
        }
        values.push(Box::<str>::from(r.utf8(len)?));
    }
    Ok(values)
}

fn decode_str_payload(enc: u8, r: &mut Reader<'_>) -> Result<StrColumn, PersistError> {
    match enc {
        0 => {
            let values = decode_strings(r, "string")?;
            let bytes = values.iter().map(|v| 1 + v.len() as u64).sum();
            Ok(StrColumn::Plain { values, bytes })
        }
        1 => {
            let dict = decode_strings(r, "dictionary")?;
            if dict.windows(2).any(|w| w[0] >= w[1]) {
                return Err(corrupt("dictionary is not strictly sorted"));
            }
            let codes = decode_packed(r)?;
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

/// Serialize a segment to its full file image (header + payload + CRC64).
pub fn encode_segment(payload: &SegmentPayload) -> Vec<u8> {
    let mut body = Vec::new();
    match payload {
        SegmentPayload::Int(ic) => encode_int_payload(&mut body, ic),
        SegmentPayload::Str(sc) => encode_str_payload(&mut body, sc),
        SegmentPayload::Raw(bytes) => body.extend_from_slice(bytes),
    }
    let mut out = Vec::with_capacity(SEGMENT_HEADER_BYTES + body.len() + CRC_BYTES);
    out.extend_from_slice(SEGMENT_MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    out.push(payload.kind());
    out.push(payload.enc());
    put_u16(&mut out, 0); // pad
    put_u64(&mut out, payload.rows());
    put_u64(&mut out, body.len() as u64);
    out.extend_from_slice(&body);
    let crc = crc64(&out);
    put_u64(&mut out, crc);
    out
}

/// Parse and fully validate a segment file image. The checksum is verified
/// before any payload byte is interpreted; corrupt images always fail typed.
pub fn decode_segment(image: &[u8]) -> Result<SegmentPayload, PersistError> {
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
    let format = r.u32()?;
    if format != FORMAT_VERSION {
        return Err(corrupt(format!("unsupported segment format {format}")));
    }
    let kind = r.u8()?;
    let enc = r.u8()?;
    if r.u16()? != 0 {
        return Err(corrupt("non-zero header padding"));
    }
    let rows = r.u64()?;
    let payload_len = r.u64()? as usize;
    if payload_len != body.len() - SEGMENT_HEADER_BYTES {
        return Err(corrupt("payload length does not match file size"));
    }
    let payload_bytes = r.take(payload_len)?;
    r.done()?;
    let mut pr = Reader::new(payload_bytes);
    let payload = match kind {
        0 => SegmentPayload::Int(decode_int_payload(enc, &mut pr)?),
        1 => SegmentPayload::Str(decode_str_payload(enc, &mut pr)?),
        2 => {
            if enc != 0 {
                return Err(corrupt(format!("unknown raw encoding tag {enc}")));
            }
            SegmentPayload::Raw(pr.take(payload_len)?.to_vec())
        }
        other => return Err(corrupt(format!("unknown segment kind {other}"))),
    };
    pr.done()?;
    if payload.rows() != rows {
        return Err(corrupt("header row count does not match payload"));
    }
    Ok(payload)
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

/// A parsed, validated manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Snapshot generation (monotonically increasing, 1-based).
    pub generation: u64,
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
    let format = r.u32()?;
    if format != FORMAT_VERSION {
        return Err(corrupt(format!("unsupported manifest format {format}")));
    }
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
    Ok(Manifest { generation, sf, seed, entries })
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
/// commit them with an atomic manifest rename. The new generation is
/// `latest + 1`; concurrent readers of older generations are unaffected
/// (generations are immutable once committed).
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
    fs.create_dir_all(dir)?;
    let generation = generations(fs, dir)?.last().copied().unwrap_or(0) + 1;
    let parts = snapshot_tables(tables);
    let nsegs: usize = parts.iter().map(|t| t.schema.arity()).sum();
    let mut entries = Vec::with_capacity(nsegs);
    let mut total_bytes = 0u64;
    for table in parts {
        for (def, data) in table.schema.columns.iter().zip(&table.columns) {
            let name = format!("{}.{}", table.schema.name, def.name);
            let payload = match Column::encode(data, true) {
                Column::Int(ic) => SegmentPayload::Int(ic),
                Column::Str(sc) => SegmentPayload::Str(sc),
            };
            let image = encode_segment(&payload);
            let file = segment_file_name(&name, generation);
            write_file_atomic(fs, dir, &file, &image)?;
            entries.push(ManifestEntry {
                name,
                file,
                kind: payload.kind(),
                enc: payload.enc(),
                rows: payload.rows(),
                bytes: image.len() as u64,
                crc: trailing_crc(&image),
            });
            total_bytes += image.len() as u64;
        }
    }
    let manifest = Manifest { generation, sf: tables.config.sf, seed: tables.config.seed, entries };
    let image = encode_manifest(&manifest);
    total_bytes += image.len() as u64;
    write_file_atomic(fs, dir, &manifest_name(generation), &image)?;
    fs.sync_dir(dir)?;
    Ok(SnapshotReport { generation, segments: nsegs, bytes: total_bytes })
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

fn load_generation_inner(
    fs: &dyn Vfs,
    dir: &Path,
    gen: u64,
) -> Result<(SsbTables, usize, u64), PersistError> {
    let m = read_manifest(fs, dir, gen)?;
    let mut cols: HashMap<String, ColumnData> = HashMap::with_capacity(m.entries.len());
    let mut bytes = 0u64;
    for e in &m.entries {
        let image = match fs.read(&dir.join(&e.file)) {
            Ok(b) => b,
            Err(err) if err.kind() == io::ErrorKind::NotFound => {
                return Err(corrupt(format!("segment file {} missing", e.file)));
            }
            Err(err) => return Err(err.into()),
        };
        if image.len() as u64 != e.bytes {
            return Err(corrupt(format!("segment {} size does not match manifest", e.name)));
        }
        let payload = decode_segment(&image)?;
        if trailing_crc(&image) != e.crc {
            return Err(corrupt(format!("segment {} checksum differs from manifest pin", e.name)));
        }
        if payload.kind() != e.kind || payload.enc() != e.enc || payload.rows() != e.rows {
            return Err(corrupt(format!("segment {} geometry differs from manifest", e.name)));
        }
        let data = match payload {
            SegmentPayload::Int(ic) => ColumnData::Int(ic.decode()),
            SegmentPayload::Str(sc) => {
                ColumnData::Str(sc.decode().into_iter().map(String::from).collect())
            }
            SegmentPayload::Raw(_) => {
                return Err(corrupt(format!(
                    "unexpected raw segment {} in table snapshot",
                    e.name
                )));
            }
        };
        if cols.insert(e.name.clone(), data).is_some() {
            return Err(corrupt(format!("duplicate segment {}", e.name)));
        }
        bytes += image.len() as u64;
    }
    let schema = star_schema();
    let lineorder = build_table(&schema.lineorder, &mut cols)?;
    let customer = build_table(&schema.customer, &mut cols)?;
    let supplier = build_table(&schema.supplier, &mut cols)?;
    let part = build_table(&schema.part, &mut cols)?;
    let date = build_table(&schema.date, &mut cols)?;
    if !cols.is_empty() {
        let mut extra: Vec<&str> = cols.keys().map(String::as_str).collect();
        extra.sort_unstable();
        return Err(corrupt(format!("manifest lists unknown segments: {}", extra.join(", "))));
    }
    let segments = m.entries.len();
    let tables = SsbTables {
        config: SsbConfig { sf: m.sf, seed: m.seed },
        schema,
        lineorder,
        customer,
        supplier,
        part,
        date,
    };
    Ok((tables, segments, bytes))
}

/// Load exactly generation `gen`, validating every checksum and codec
/// invariant. Fails typed on any damage — no fallback.
pub fn load_generation(fs: &dyn Vfs, dir: &Path, gen: u64) -> Result<SsbTables, PersistError> {
    load_generation_inner(fs, dir, gen).map(|(t, _, _)| t)
}

/// Load the newest generation that validates end-to-end, falling back to
/// older generations when newer ones are damaged. Returns
/// [`PersistError::NoSnapshot`] when no manifest exists at all, or the last
/// validation error when every generation is damaged.
pub fn load_latest(dir: &Path) -> Result<(SsbTables, LoadReport), PersistError> {
    load_latest_with(&StdFs, dir)
}

/// [`load_latest`] over `fs`.
pub fn load_latest_with(fs: &dyn Vfs, dir: &Path) -> Result<(SsbTables, LoadReport), PersistError> {
    let mut fallbacks = 0u32;
    let mut last_err = PersistError::NoSnapshot;
    for &g in generations(fs, dir)?.iter().rev() {
        match load_generation_inner(fs, dir, g) {
            Ok((tables, segments, bytes)) => {
                return Ok((tables, LoadReport { generation: g, segments, bytes, fallbacks }));
            }
            Err(e) => {
                fallbacks += 1;
                last_err = e;
            }
        }
    }
    Err(last_err)
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
    use std::fs;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cvr-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_payloads() -> Vec<SegmentPayload> {
        let rle_src: Vec<i64> = (0..400).map(|i| i / 50).collect();
        let packed_src: Vec<i64> = (0..300).map(|i| 1000 + (i * 7) % 90).collect();
        let strs: Vec<String> = (0..120).map(|i| format!("value-{:03}", i % 40)).collect();
        vec![
            SegmentPayload::Int(IntColumn::plain(vec![-5, 0, 7, 1 << 40, i64::MIN, i64::MAX])),
            SegmentPayload::Int(IntColumn::plain_fixed(vec![1, 2, 3])),
            SegmentPayload::Int(IntColumn::rle(&rle_src)),
            SegmentPayload::Int(IntColumn::packed(&packed_src).expect("packable")),
            SegmentPayload::Str(StrColumn::plain(strs.clone())),
            SegmentPayload::Str(StrColumn::dict(&strs)),
            SegmentPayload::Raw(vec![0xAB; 777]),
            SegmentPayload::Raw(Vec::new()),
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
    }

    #[test]
    fn a_plain_value_past_its_recorded_width_is_corrupt() {
        // Widths 1, 2 and 4, each with its middle value replaced by the first
        // value past the width and by a negative one, under a valid checksum.
        let columns = [
            IntColumn::plain(vec![1, 200, 3]),
            IntColumn::plain(vec![1, 60_000, 3]),
            IntColumn::plain_fixed(vec![1, 2, 3]),
        ];
        for (column, past) in columns.into_iter().zip([1i64 << 8, 1 << 16, 1 << 32]) {
            let image = encode_segment(&SegmentPayload::Int(column));
            for wide in [past, -1] {
                // Payload: width byte, count, then 8 bytes a value.
                let at = SEGMENT_HEADER_BYTES + 1 + 4 + 8;
                let mut bad = image[..image.len() - CRC_BYTES].to_vec();
                bad[at..at + 8].copy_from_slice(&wide.to_le_bytes());
                let crc = crc64(&bad);
                put_u64(&mut bad, crc);
                match decode_segment(&bad) {
                    Err(PersistError::Corrupt { detail }) => {
                        assert!(detail.contains("exceeds recorded byte width"), "{detail}")
                    }
                    other => panic!("{wide} at width {past:#x} decoded: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn snapshot_load_round_trip_is_lossless() {
        let dir = temp_dir("roundtrip");
        let tables = SsbConfig { sf: 0.0002, seed: 7 }.generate();
        let report = write_snapshot(&dir, &tables).unwrap();
        assert_eq!(report.generation, 1);
        assert_eq!(report.segments, 17 + 8 + 7 + 9 + 17);
        let (loaded, load) = load_latest(&dir).unwrap();
        assert_eq!(load.generation, 1);
        assert_eq!(load.fallbacks, 0);
        assert_eq!(load.segments, report.segments);
        assert_eq!(loaded.config.sf, tables.config.sf);
        assert_eq!(loaded.config.seed, tables.config.seed);
        for (a, b) in snapshot_tables(&loaded).iter().zip(snapshot_tables(&tables)) {
            assert_eq!(a.schema.name, b.schema.name);
            assert_eq!(a.columns, b.columns, "table {} differs after reload", b.schema.name);
        }
        // Logical equality implies re-encoded physical equality too.
        let c = Column::encode(tables.lineorder.column("lo_extendedprice"), true);
        let l = Column::encode(loaded.lineorder.column("lo_extendedprice"), true);
        assert_eq!(c, l);
        let _ = fs::remove_dir_all(&dir);
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
