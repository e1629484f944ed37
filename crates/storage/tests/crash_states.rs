//! Every directory a crash, a lying disk or a failing fsync can leave
//! behind the snapshot protocol, loaded.
//!
//! [`MemFs`] is an in-memory [`Vfs`] holding one directory. It records each
//! mutating call `persist` makes, and from a recorded trace it materialises
//! what a crash after any prefix of that trace may leave on disk:
//!
//! * a file's contents are durable once the file is fsynced; contents
//!   written after its last fsync may be missing (the file reads as it was
//!   at that fsync, or empty);
//! * a create, rename or remove is durable once the directory is fsynced;
//!   before that, each may or may not have persisted, independently of the
//!   others and of their order.
//!
//! A failed fsync persists nothing, so a crash after the k-th fsync fails
//! leaves exactly the states of the prefix before it.
//!
//! **The load rule.** `load_latest` returns a generation whose tables equal
//! the ones committed as that generation, no older than the newest
//! generation whose final directory fsync returned `Ok`. Every state here
//! has such a generation, so no load may fail. No state may load a
//! generation one of whose files was damaged: a damaged byte is never
//! decoded.
//!
//! **Why not every subset.** Before a snapshot's directory fsync, up to 118
//! creates and renames (59 files) are undecided: 2^118 subsets for one
//! prefix. The loader reads only `MANIFEST-<n>` names and the segment files
//! a manifest lists, never a `.tmp` name, and the generation G−1 below the
//! one being written was directory-synced before the trace starts. So the
//! loader can tell apart only:
//! 1. `MANIFEST-G` absent: G−1 loads, whichever of G's segments and temp
//!    files persisted. The empty subset is in this class.
//! 2. `MANIFEST-G` present with every segment it lists: G loads. The full
//!    subset of any prefix past the manifest rename is in this class.
//! 3. `MANIFEST-G` present, its i-th listed segment the first one missing:
//!    G fails typed and G−1 loads. "Every event but the i-th segment's
//!    rename" is in this class: the manifest rename persisted while an
//!    earlier segment rename did not.
//!
//! The manifest is fsynced before its rename, so a present manifest with
//! lost contents cannot happen; damaged contents are the lying-disk test's.
//! Per prefix, the enumeration takes all undecided events, none, all but
//! one and only one, which reaches every class wherever it is reachable.
//! `prune` never fsyncs the directory, so each of its removes is undecided;
//! only generations below the cutoff lose files, and the same enumeration
//! reaches each of the three classes for generation 1.
//!
//! States are deduplicated by a digest of the materialised directory before
//! loading. Run with `--nocapture` for the enumerated and distinct counts.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::io;
use std::path::Path;
use std::rc::Rc;

use cvr_data::gen::{SsbConfig, SsbTables};
use cvr_storage::persist::{self, LoadReport, PersistError, Vfs};

/// The committed generation `gen`'s tables: each generation differs, so a
/// generation that loads as another's tables cannot pass.
fn committed(gen: u64) -> SsbTables {
    SsbConfig { sf: 0.0002, seed: gen }.generate()
}

fn same_tables(a: &SsbTables, b: &SsbTables) -> bool {
    a.config.sf == b.config.sf
        && a.config.seed == b.config.seed
        && [(&a.lineorder, &b.lineorder), (&a.customer, &b.customer)]
            .into_iter()
            .chain([(&a.supplier, &b.supplier), (&a.part, &b.part), (&a.date, &b.date)])
            .all(|(x, y)| x.columns == y.columns)
}

/// The one directory a [`MemFs`] holds.
fn dir() -> &'static Path {
    Path::new("db")
}

type Blob = Rc<[u8]>;

/// One mutating call, as the disk saw it.
#[derive(Debug, Clone)]
enum Op {
    /// `blob` became `inode`'s contents; `create` when `name` was new.
    Write {
        name: String,
        inode: usize,
        blob: Blob,
        create: bool,
    },
    /// `inode`'s contents, `blob` at the time, became durable.
    SyncFile {
        inode: usize,
        blob: Blob,
    },
    Rename {
        from: String,
        to: String,
        inode: usize,
    },
    /// Every directory operation before it became durable.
    SyncDir,
    Remove {
        name: String,
    },
}

/// Something a crash may or may not keep: the directory effect of op `i`
/// (a create, rename or remove), or the contents op `i` wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Event {
    Dir(usize),
    Contents(usize),
}

/// A directory: name → inode, and each inode's contents.
#[derive(Debug, Clone, Default)]
struct Image {
    names: BTreeMap<String, usize>,
    blobs: HashMap<usize, Blob>,
}

impl Image {
    fn digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for (name, inode) in &self.names {
            let blob = &self.blobs[inode];
            // Contents are immutable and shared, so their address names them.
            let id = if blob.is_empty() { 0 } else { blob.as_ptr() as usize };
            (name, id, blob.len()).hash(&mut h);
        }
        h.finish()
    }
}

#[derive(Default)]
struct Disk {
    /// What a reader sees now.
    live: Image,
    /// The mutating calls since the last checkpoint.
    trace: Vec<Op>,
    next_inode: usize,
    /// Syncs attempted so far, and the one (from 0) that fails.
    syncs: usize,
    fail_sync: Option<usize>,
}

/// An in-memory one-directory disk that records every mutating call.
#[derive(Default)]
struct MemFs(RefCell<Disk>);

impl MemFs {
    /// A disk whose directory is `image`, all of it durable.
    fn from_image(image: Image) -> MemFs {
        let next_inode = image.blobs.keys().max().map_or(0, |m| m + 1);
        MemFs(RefCell::new(Disk { live: image, next_inode, ..Disk::default() }))
    }

    /// The live directory, taken as durable: callers checkpoint only after
    /// a call that synced everything it wrote. Clears the trace.
    fn checkpoint(&self) -> Image {
        let mut disk = self.0.borrow_mut();
        disk.trace.clear();
        disk.live.clone()
    }

    fn live(&self) -> Image {
        self.0.borrow().live.clone()
    }

    fn trace(&self) -> Vec<Op> {
        self.0.borrow().trace.clone()
    }

    fn name(path: &Path) -> String {
        assert_eq!(path.parent(), Some(dir()), "MemFs holds one directory");
        path.file_name().and_then(|n| n.to_str()).expect("a UTF-8 file name").to_string()
    }

    fn sync(&self, op: impl FnOnce(&Disk) -> io::Result<Op>) -> io::Result<()> {
        let disk = &mut *self.0.borrow_mut();
        disk.syncs += 1;
        if disk.fail_sync == Some(disk.syncs - 1) {
            return Err(io::Error::other("injected fsync failure"));
        }
        let op = op(disk)?;
        disk.trace.push(op);
        Ok(())
    }
}

fn not_found() -> io::Error {
    io::ErrorKind::NotFound.into()
}

impl Vfs for MemFs {
    fn create_dir_all(&self, d: &Path) -> io::Result<()> {
        assert_eq!(d, dir());
        Ok(())
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let name = MemFs::name(path);
        let disk = &mut *self.0.borrow_mut();
        let (inode, create) = match disk.live.names.get(&name) {
            Some(&inode) => (inode, false),
            None => {
                disk.next_inode += 1;
                (disk.next_inode - 1, true)
            }
        };
        let blob: Blob = bytes.into();
        disk.live.names.insert(name.clone(), inode);
        disk.live.blobs.insert(inode, blob.clone());
        disk.trace.push(Op::Write { name, inode, blob, create });
        Ok(())
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let name = MemFs::name(path);
        self.sync(|disk| {
            let inode = *disk.live.names.get(&name).ok_or_else(not_found)?;
            Ok(Op::SyncFile { inode, blob: disk.live.blobs[&inode].clone() })
        })
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let (from, to) = (MemFs::name(from), MemFs::name(to));
        let disk = &mut *self.0.borrow_mut();
        let inode = disk.live.names.remove(&from).ok_or_else(not_found)?;
        disk.live.names.insert(to.clone(), inode);
        disk.trace.push(Op::Rename { from, to, inode });
        Ok(())
    }

    fn sync_dir(&self, d: &Path) -> io::Result<()> {
        assert_eq!(d, dir());
        self.sync(|_| Ok(Op::SyncDir))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let live = &self.0.borrow().live;
        let inode = live.names.get(&MemFs::name(path)).ok_or_else(not_found)?;
        Ok(live.blobs[inode].to_vec())
    }

    fn list(&self, d: &Path) -> io::Result<Vec<String>> {
        assert_eq!(d, dir());
        Ok(self.0.borrow().live.names.keys().cloned().collect())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let name = MemFs::name(path);
        let disk = &mut *self.0.borrow_mut();
        disk.live.names.remove(&name).ok_or_else(not_found)?;
        disk.trace.push(Op::Remove { name });
        Ok(())
    }
}

/// What a crash after `trace` may or may not keep: the directory operations
/// after its last directory fsync, and the contents no later fsync covered.
fn undecided(trace: &[Op]) -> Vec<Event> {
    let synced_dir = trace.iter().rposition(|op| matches!(op, Op::SyncDir)).map_or(0, |s| s + 1);
    let mut events = Vec::new();
    for (i, op) in trace.iter().enumerate() {
        let dir_op =
            matches!(op, Op::Write { create: true, .. } | Op::Rename { .. } | Op::Remove { .. });
        if dir_op && i >= synced_dir {
            events.push(Event::Dir(i));
        }
        if let Op::Write { blob, .. } = op {
            let synced = trace[i + 1..]
                .iter()
                .any(|later| matches!(later, Op::SyncFile { blob: b, .. } if Rc::ptr_eq(b, blob)));
            if !synced {
                events.push(Event::Contents(i));
            }
        }
    }
    events
}

/// The directory a crash after `trace`, replayed over the durable `base`,
/// leaves when exactly the events `lost` names did not persist.
fn crash_image(base: &Image, trace: &[Op], lost: impl Fn(Event) -> bool) -> Image {
    let mut names = base.names.clone();
    let mut durable = base.blobs.clone();
    let mut written: HashMap<usize, (usize, Blob)> = HashMap::new();
    for (i, op) in trace.iter().enumerate() {
        let persisted = !lost(Event::Dir(i));
        match op {
            Op::Write { name, inode, blob, create } => {
                written.insert(*inode, (i, blob.clone()));
                if *create && persisted {
                    names.insert(name.clone(), *inode);
                }
            }
            Op::SyncFile { inode, blob } => {
                durable.insert(*inode, blob.clone());
            }
            // A rename persists even when the create it renames did not.
            Op::Rename { from, to, inode } if persisted => {
                names.remove(from);
                names.insert(to.clone(), *inode);
            }
            Op::Remove { name } if persisted => {
                names.remove(name);
            }
            _ => {}
        }
    }
    let blobs = names
        .values()
        .map(|&inode| {
            let blob = match written.get(&inode) {
                Some((i, blob)) if !lost(Event::Contents(*i)) => blob.clone(),
                _ => durable.get(&inode).cloned().unwrap_or_else(|| Blob::from(&[][..])),
            };
            (inode, blob)
        })
        .collect();
    Image { names, blobs }
}

/// Visit each distinct crash state of every prefix of `trace` over `base`,
/// with the prefix length; returns the enumerated and the distinct counts.
fn for_each_crash_state(
    base: &Image,
    trace: &[Op],
    mut visit: impl FnMut(usize, &MemFs),
) -> (usize, usize) {
    let (mut raw, mut seen) = (0usize, HashSet::new());
    for p in 0..=trace.len() {
        let events = undecided(&trace[..p]);
        let index: HashMap<Event, usize> =
            events.iter().enumerate().map(|(i, e)| (*e, i)).collect();
        // Every event persists but `flip`, or only `flip` does.
        for (keep, flip) in [true, false].into_iter().flat_map(|keep| {
            std::iter::once(None).chain((0..events.len()).map(Some)).map(move |f| (keep, f))
        }) {
            raw += 1;
            let image = crash_image(base, &trace[..p], |e| {
                index.get(&e).is_some_and(|&i| keep == (flip == Some(i)))
            });
            if seen.insert(image.digest()) {
                visit(p, &MemFs::from_image(image));
            }
        }
    }
    (raw, seen.len())
}

/// The load rule: `load_latest` returns a committed generation's own
/// tables, no older than `floor`.
fn check_load(fs: &MemFs, floor: u64, tables: &[SsbTables]) -> LoadReport {
    let (loaded, report) = persist::load_latest_with(fs, dir())
        .unwrap_or_else(|e| panic!("generation {floor} is durable, yet the load failed: {e}"));
    let g = report.generation;
    assert!(g >= floor, "loaded generation {g}, older than the durable {floor}");
    assert!(same_tables(&loaded, &tables[g as usize - 1]), "generation {g}'s tables differ");
    report
}

/// A disk holding the committed generations `1..=n`, and its image.
fn committed_disk(tables: &[SsbTables]) -> (MemFs, Image) {
    let fs = MemFs::default();
    for (g, t) in tables.iter().enumerate() {
        let report = persist::write_snapshot_with(&fs, dir(), t).expect("a clean snapshot");
        assert_eq!(report.generation, g as u64 + 1);
    }
    let image = fs.checkpoint();
    (fs, image)
}

#[test]
fn every_crash_state_of_a_snapshot_loads_a_committed_generation() {
    let tables = [committed(1), committed(2)];
    let (fs, base) = committed_disk(&tables[..1]);
    let report = persist::write_snapshot_with(&fs, dir(), &tables[1]).unwrap();
    let trace = fs.trace();
    // Per file (segments + manifest): write temp, fsync, rename; then one
    // directory fsync.
    assert_eq!(trace.len(), 3 * (report.segments + 1) + 1);

    let (mut loaded_new, mut reordered) = (0, 0);
    let (raw, distinct) = for_each_crash_state(&base, &trace, |p, state| {
        let report = check_load(state, if p == trace.len() { 2 } else { 1 }, &tables);
        if report.generation == 2 {
            loaded_new += 1;
        } else if report.fallbacks > 0 {
            // MANIFEST-2 persisted while a segment rename did not.
            reordered += 1;
        }
    });
    println!(
        "crash states: {raw} enumerated over {} prefixes, {distinct} distinct loaded \
         ({loaded_new} load generation 2, {reordered} fall back past a visible MANIFEST-2)",
        trace.len() + 1
    );
    assert!(loaded_new > 0);
    assert!(reordered >= report.segments, "every segment's missing rename is reached");
}

/// Truncations and single-bit flips of one file: cut to 0, 1, inside the
/// header, mid-payload, len − 8 and len − 1 bytes; one flip in each of the
/// magic, the header, the payload and the CRC.
fn damaged(name: &str, good: &[u8]) -> Vec<Vec<u8>> {
    let header = if name.starts_with("MANIFEST-") { 40 } else { 32 };
    let (len, mid) = (good.len(), header + (good.len() - header - 8) / 2);
    let mut out: Vec<Vec<u8>> =
        [0, 1, header / 2, mid, len - 8, len - 1].iter().map(|&cut| good[..cut].to_vec()).collect();
    for at in [3, 8 + (header - 8) / 2, mid, len - 4] {
        let mut flipped = good.to_vec();
        flipped[at] ^= 1 << (at % 8);
        out.push(flipped);
    }
    out
}

/// A disk that acknowledged a write it did not keep, or kept it wrong, is
/// caught by the loader: the damaged generation fails typed, its
/// predecessor loads, and no damaged byte is decoded.
#[test]
fn a_lying_disk_is_caught_and_the_previous_generation_loads() {
    let tables = [committed(1), committed(2)];
    let (fs, _) = committed_disk(&tables[..1]);
    let report = persist::write_snapshot_with(&fs, dir(), &tables[1]).expect("reported success");
    let image = fs.live();
    let written: Vec<&String> =
        image.names.keys().filter(|n| n.ends_with(".g2.seg") || *n == "MANIFEST-2").collect();
    assert_eq!(written.len(), report.segments + 1);
    let mut cases = 0;
    for name in &written {
        let inode = image.names[*name];
        for bad in damaged(name, &image.blobs[&inode]) {
            let mut lying = image.clone();
            lying.blobs.insert(inode, bad.into());
            let fs = MemFs::from_image(lying);
            match persist::load_generation(&fs, dir(), 2) {
                Err(PersistError::Corrupt { .. }) => {}
                other => panic!("damaged {name} loaded as generation 2: {other:?}"),
            }
            let report = check_load(&fs, 1, &tables);
            assert_eq!((report.generation, report.fallbacks), (1, 1), "damaged {name}");
            cases += 1;
        }
    }
    println!("lying disk: {cases} damaged images of {} files, every one refused", written.len());
}

/// The k-th fsync fails, for every k: the snapshot fails typed. A failed
/// file fsync leaves the new generation invisible; a failed final directory
/// fsync may leave it visible, and then either generation is correct.
#[test]
fn a_failed_fsync_fails_the_snapshot_typed() {
    let tables = [committed(1), committed(2)];
    let (_, base) = committed_disk(&tables[..1]);
    for k in 0.. {
        let fs = MemFs::from_image(base.clone());
        fs.0.borrow_mut().fail_sync = Some(k);
        let err = match persist::write_snapshot_with(&fs, dir(), &tables[1]) {
            Ok(report) => {
                // No k-th sync: every file's and the directory's ran.
                assert_eq!(k, report.segments + 2);
                break;
            }
            Err(PersistError::Io(detail)) => detail,
            Err(other) => panic!("sync {k} failed as {other:?}"),
        };
        assert!(err.contains("fsync"), "{err}");
        let live = MemFs::from_image(fs.live());
        let visible = persist::generations(&live, dir()).unwrap();
        let report = check_load(&live, 1, &tables);
        if visible == [1] {
            assert_eq!((report.generation, report.fallbacks), (1, 0), "sync {k}");
        } else {
            assert_eq!(visible, [1, 2], "only the final directory fsync follows the commit");
            assert_eq!(report.generation, 2);
        }
    }
}

/// A crash at any point of `prune(dir, 2)` over three generations leaves
/// the newest two loadable with zero fallbacks, and generation 1 either
/// whole or refused typed.
#[test]
fn a_crash_anywhere_in_prune_keeps_the_newest_two_generations() {
    let tables = [committed(1), committed(2), committed(3)];
    let (fs, base) = committed_disk(&tables);
    let removed = persist::prune_with(&fs, dir(), 2).unwrap();
    let trace = fs.trace();
    assert_eq!(trace.len(), removed);
    assert!(trace.iter().all(|op| matches!(op, Op::Remove { .. })));

    let (raw, distinct) = for_each_crash_state(&base, &trace, |_, state| {
        let report = check_load(state, 3, &tables);
        assert_eq!((report.generation, report.fallbacks), (3, 0));
        let second = persist::load_generation(state, dir(), 2).expect("generation 2 survives");
        assert!(same_tables(&second, &tables[1]));
        match persist::load_generation(state, dir(), 1) {
            Ok(first) => assert!(same_tables(&first, &tables[0])),
            Err(PersistError::Corrupt { .. } | PersistError::NoSnapshot) => {}
            Err(e) => panic!("generation 1 failed untyped: {e}"),
        }
    });
    println!(
        "prune crash states: {raw} enumerated over {} prefixes, {distinct} distinct loaded",
        trace.len() + 1
    );
}
