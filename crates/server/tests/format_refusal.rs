//! A generation this build does not serve is refused, typed, at every entry
//! point that reads a data directory: `persist::load_latest`,
//! `Session::reload` (wire code 105) and a `Session`'s warm start over
//! `CVR_DATA_DIR`. Each walk falls back past it to an older generation it
//! reads.
//!
//! Three kinds are refused. Format 1 held every plain integer as 8 bytes
//! behind a width byte and a count, RLE runs with their starts, and 4-byte
//! string lengths. Format 2 held the logical tables, one column a segment,
//! under a manifest with no shape. A format-3 generation of the logical
//! tables (`persist::write_snapshot`) is what `load_latest` reads, but not
//! what a session serves: a session reloads the encoded store it snapshots.
//! The old generations here are written by [`write_old`], which lays out the
//! files as those formats' writers did, so the test needs no old build.
//!
//! Its own test binary: one test sets `CVR_DATA_DIR`, which every `Session`
//! built in the process reads, so the tests here take turns on [`TURN`].

use cvr_core::morsel::Parallelism;
use cvr_core::QueryError;
use cvr_data::gen::{SsbConfig, SsbTables};
use cvr_server::Session;
use cvr_storage::encode::{Column, IntColumn, StrColumn};
use cvr_storage::persist::{self, crc64, encode_segment, PersistError};
use cvr_storage::persist::{MANIFEST_MAGIC, SEGMENT_MAGIC};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

static TURN: Mutex<()> = Mutex::new(());

/// A generation this build refuses, and how it is refused.
#[derive(Clone, Copy, Debug)]
enum Refused {
    Format1,
    Format2,
    Tables,
}

impl Refused {
    const ALL: [Refused; 3] = [Refused::Format1, Refused::Format2, Refused::Tables];

    /// What refusing generation `gen` of this kind says.
    fn refusal(self, gen: u64) -> String {
        match self {
            Refused::Format1 => "unsupported manifest format 1 (this build reads format 3)".into(),
            Refused::Format2 => "unsupported manifest format 2 (this build reads format 3)".into(),
            Refused::Tables => {
                format!("generation {gen} holds the logical tables, not the encoded store")
            }
        }
    }

    /// Write `tables` into `dir` as generation `gen` of this kind.
    fn write(self, dir: &Path, tables: &SsbTables, gen: u64) {
        match self {
            Refused::Format1 => write_old(dir, tables, gen, 1),
            Refused::Format2 => write_old(dir, tables, gen, 2),
            Refused::Tables => {
                let written = persist::write_snapshot(dir, tables).expect("a tables generation");
                assert_eq!(written.generation, gen);
            }
        }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cvr-refused-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tables() -> SsbTables {
    SsbConfig { sf: 0.0005, seed: 44 }.generate()
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// `bytes` with their CRC-64 appended.
fn sealed(mut bytes: Vec<u8>) -> Vec<u8> {
    let crc = crc64(&bytes);
    put_u64(&mut bytes, crc);
    bytes
}

/// Each string as a 4-byte length and its bytes, behind a 4-byte count.
fn put_format_1_strs(out: &mut Vec<u8>, values: &[Box<str>]) {
    put_u32(out, values.len() as u32);
    for v in values {
        put_u32(out, v.len() as u32);
        out.extend_from_slice(v.as_bytes());
    }
}

/// A packed image as format 1 held it: bits, code count, word count, words.
fn put_format_1_words(out: &mut Vec<u8>, value_bits: u8, len: u32, words: &[u64]) {
    out.push(value_bits);
    put_u32(out, len);
    put_u32(out, words.len() as u32);
    words.iter().for_each(|&w| put_u64(out, w));
}

/// `column`'s format-1 segment image, and its kind and encoding tags.
fn format_1_segment(column: &Column) -> (Vec<u8>, u8, u8) {
    let mut payload = Vec::new();
    let (kind, enc) = match column {
        Column::Int(IntColumn::Plain(values)) => {
            payload.push(values.width());
            put_u32(&mut payload, values.len() as u32);
            values.decode().iter().for_each(|&v| put_u64(&mut payload, v as u64));
            (0, 0)
        }
        Column::Int(IntColumn::Rle { runs, num_values }) => {
            put_u32(&mut payload, *num_values);
            put_u32(&mut payload, runs.len() as u32);
            for r in runs {
                put_u64(&mut payload, r.value as u64);
                put_u32(&mut payload, r.start);
                put_u32(&mut payload, r.len);
            }
            (0, 1)
        }
        Column::Int(IntColumn::Packed { reference, packed }) => {
            put_u64(&mut payload, *reference as u64);
            put_format_1_words(&mut payload, packed.value_bits(), packed.len(), packed.words());
            (0, 2)
        }
        Column::Str(StrColumn::Plain { values, .. }) => {
            put_format_1_strs(&mut payload, values);
            (1, 0)
        }
        Column::Str(StrColumn::Dict { dict, codes }) => {
            put_format_1_strs(&mut payload, dict);
            put_format_1_words(&mut payload, codes.value_bits(), codes.len(), codes.words());
            (1, 1)
        }
    };
    let mut image = SEGMENT_MAGIC.to_vec();
    put_u32(&mut image, 1);
    image.extend_from_slice(&[kind, enc]);
    put_u16(&mut image, 0);
    put_u64(&mut image, column.len() as u64);
    put_u64(&mut image, payload.len() as u64);
    image.extend_from_slice(&payload);
    (sealed(image), kind, enc)
}

/// Write `tables` into `dir` as generation `gen` in `format` 1 or 2: one
/// segment a logical column, then the manifest that lists them. A format-2
/// segment is today's image of the column; both formats' manifests are
/// today's without its shape byte.
fn write_old(dir: &Path, tables: &SsbTables, gen: u64, format: u32) {
    let parts = [&tables.lineorder, &tables.customer, &tables.supplier, &tables.part, &tables.date];
    let mut entries = Vec::new();
    for table in parts {
        for (def, data) in table.schema.columns.iter().zip(&table.columns) {
            let name = format!("{}.{}", table.schema.name, def.name);
            let file = format!("{name}.g{gen}.seg");
            let column = Column::encode(data, true);
            let (image, kind, enc) = match format {
                1 => format_1_segment(&column),
                _ => {
                    let image = encode_segment(&column);
                    let (kind, enc) = (image[12], image[13]);
                    (image, kind, enc)
                }
            };
            std::fs::write(dir.join(&file), &image).unwrap();
            let crc = u64::from_le_bytes(image[image.len() - 8..].try_into().unwrap());
            entries.push((name, file, kind, enc, column.len() as u64, image.len() as u64, crc));
        }
    }
    let mut manifest = MANIFEST_MAGIC.to_vec();
    put_u32(&mut manifest, format);
    put_u64(&mut manifest, gen);
    put_u64(&mut manifest, tables.config.sf.to_bits());
    put_u64(&mut manifest, tables.config.seed);
    put_u32(&mut manifest, entries.len() as u32);
    for (name, file, kind, enc, rows, bytes, crc) in entries {
        put_u16(&mut manifest, name.len() as u16);
        manifest.extend_from_slice(name.as_bytes());
        put_u16(&mut manifest, file.len() as u16);
        manifest.extend_from_slice(file.as_bytes());
        manifest.extend_from_slice(&[kind, enc]);
        put_u64(&mut manifest, rows);
        put_u64(&mut manifest, bytes);
        put_u64(&mut manifest, crc);
    }
    std::fs::write(dir.join(persist::manifest_name(gen)), sealed(manifest)).unwrap();
}

fn same_tables(a: &SsbTables, b: &SsbTables) -> bool {
    a.config.sf == b.config.sf
        && a.config.seed == b.config.seed
        && [(&a.lineorder, &b.lineorder), (&a.customer, &b.customer)]
            .into_iter()
            .chain([(&a.supplier, &b.supplier), (&a.part, &b.part), (&a.date, &b.date)])
            .all(|(x, y)| x.columns == y.columns)
}

#[test]
fn load_latest_refuses_an_old_format_typed_or_falls_back_past_it() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let tables = tables();
    for old in [Refused::Format1, Refused::Format2] {
        let dir = temp_dir("load");
        old.write(&dir, &tables, 1);
        match persist::load_latest(&dir) {
            Err(PersistError::Corrupt { detail }) => assert_eq!(detail, old.refusal(1)),
            other => panic!("a {old:?} generation loaded: {:?}", other.map(|(_, r)| r)),
        }

        // A current generation below an old one loads, one fallback on.
        let dir = temp_dir("fallback");
        let written = persist::write_snapshot(&dir, &tables).expect("generation 1");
        old.write(&dir, &tables, 2);
        let (loaded, report) = persist::load_latest(&dir).expect("generation 1 loads");
        assert_eq!((report.generation, report.fallbacks), (written.generation, 1), "{old:?}");
        assert!(same_tables(&loaded, &tables), "{old:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn reload_over_a_refused_generation_answers_code_105_then_falls_back_past_it() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let tables = Arc::new(tables());
    for refused in Refused::ALL {
        let dir = temp_dir("reload");
        refused.write(&dir, &tables, 1);
        let session = Session::with_cache_budget(tables.clone(), Parallelism::serial(), 0);
        session.set_data_dir(Some(dir.clone()));
        match session.reload() {
            Err(e @ QueryError::Corrupt { .. }) => {
                assert_eq!(e.code(), QueryError::CODE_CORRUPT, "wire code 105");
                assert!(e.to_string().contains(&refused.refusal(1)), "{e}");
            }
            other => panic!("RELOAD over {refused:?} answered {other:?}"),
        }
        assert_eq!(session.store_version(), 0, "a refused reload leaves the store as it was");

        // The session's own snapshot, below the refused one, reloads.
        let dir = temp_dir("reload-fallback");
        session.set_data_dir(Some(dir.clone()));
        assert_eq!(session.snapshot().expect("a store generation").generation, 1);
        refused.write(&dir, &tables, 2);
        assert_eq!(session.reload().expect("generation 1 reloads").generation, 1, "{refused:?}");
        assert_eq!(session.store_version(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_warm_start_over_a_refused_generation_warns_and_serves_the_generated_tables() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let tables = Arc::new(tables());
    for refused in Refused::ALL {
        let dir = temp_dir("warm");
        refused.write(&dir, &tables, 1);
        let warnings = cvr_obs::counter("cvr_warnings_total", "Operator-facing warnings emitted");
        let before = warnings.get();
        std::env::set_var("CVR_DATA_DIR", &dir);
        let session = Session::with_cache_budget(tables.clone(), Parallelism::serial(), 0);
        std::env::remove_var("CVR_DATA_DIR");
        assert_eq!(warnings.get(), before + 1, "{refused:?}: the refusal is warned once");
        assert_eq!(session.store_version(), 0, "{refused:?}: no generation was loaded");
        assert!(Arc::ptr_eq(&session.tables(), &tables), "the generated tables are served");
        assert_eq!(session.data_dir(), Some(dir.clone()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
