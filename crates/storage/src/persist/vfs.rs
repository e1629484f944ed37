//! The filesystem seam under [`persist`](super): every operation the
//! snapshot protocol performs, and nothing else.

use std::fs;
use std::io;
use std::path::Path;

/// The filesystem operations the snapshot protocol performs. [`StdFs`] is
/// the real filesystem; a test substitutes an in-memory recorder to
/// enumerate what a crash, a lying disk or a failing fsync can leave behind.
pub trait Vfs {
    /// Create `dir` and any missing parents; an existing `dir` is fine.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Create or truncate the file `path` and write all of `bytes` to it.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Make the contents of the file `path` durable.
    fn sync_file(&self, path: &Path) -> io::Result<()>;
    /// Atomically replace `to` with `from`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Make `dir`'s entries (creates, renames, removes) durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Read all of the file `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// The names of `dir`'s entries, in no particular order.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Remove the file `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;
}

/// The real filesystem.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdFs;

impl Vfs for StdFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        // fsync flushes the file, not the descriptor: a second handle
        // reaches the pages the write left dirty.
        fs::OpenOptions::new().write(true).open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Directory fsync makes creates and renames themselves durable on
        // Linux.
        fs::File::open(dir)?.sync_all()
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(dir)? {
            // A name that is not UTF-8 is never one the protocol wrote.
            if let Ok(name) = entry?.file_name().into_string() {
                names.push(name);
            }
        }
        Ok(names)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }
}
