//! One real `kill -9`: a writer process loops a session's `SNAPSHOT` and
//! is killed mid-stream, then a fresh process started with `CVR_DATA_DIR`
//! must answer all 13 paper queries byte-identically — outputs and
//! `IoStats` — to the reference taken before the crash.
//!
//! `crates/storage/tests/crash_states.rs` loads every post-crash directory
//! in-process; this smoke covers what that cannot: the real filesystem, a
//! real signal and the `CVR_DATA_DIR` start-up path. The binary re-executes
//! itself with a role as its first argument:
//!
//! * `kill-smoke-writer DIR` — snapshot a session's store into `DIR` in a
//!   loop, printing each committed generation;
//! * `kill-smoke-verify` — build a session over differently seeded tables,
//!   so that only the durable store can produce the reference answers, and
//!   print one checksum line per query.

use std::io::{BufRead, BufReader, Write as _};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

use cvr_core::morsel::Parallelism;
use cvr_data::gen::{SsbConfig, SsbTables};
use cvr_data::queries::all_queries;
use cvr_server::Session;
use cvr_storage::persist::crc64;

const SEED: u64 = 7;
const WRITER: &str = "kill-smoke-writer";
const VERIFY: &str = "kill-smoke-verify";
/// Generations the writer commits before the kill lands in the next one.
const COMMITTED_BEFORE_KILL: usize = 3;

fn tables(seed: u64) -> SsbTables {
    SsbConfig { sf: 0.002, seed }.generate()
}

/// One line per paper query: its id and the checksums of its output and
/// its `IoStats`.
fn answers(session: &Session) -> Vec<String> {
    all_queries()
        .iter()
        .map(|q| {
            let r = session.run(q);
            let io = crc64(format!("{:?}", r.io).as_bytes());
            format!("{}\t{:016x}\t{io:016x}", q.id, crc64(&r.output.to_bytes()))
        })
        .collect()
}

fn session_over(tables: SsbTables) -> Session {
    Session::with_cache_budget(Arc::new(tables), Parallelism::serial(), 0)
}

fn writer(dir: &Path) {
    let session = session_over(tables(SEED));
    session.set_data_dir(Some(dir.to_path_buf()));
    let mut out = std::io::stdout();
    loop {
        let report = session.snapshot().expect("writer snapshot");
        writeln!(out, "{}", report.generation).and_then(|()| out.flush()).expect("writer stdout");
    }
}

fn verify() {
    let session = session_over(tables(SEED ^ 0xDEAD));
    assert!(session.store_version() > 0, "CVR_DATA_DIR's snapshot was not loaded");
    for line in answers(&session) {
        println!("{line}");
    }
}

/// Kills and reaps the child if the parent panics first.
struct Reap(Child);

impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some(WRITER) => return writer(Path::new(&args[2])),
        Some(VERIFY) => return verify(),
        _ => {}
    }
    let exe = std::env::current_exe().expect("the test's own path");
    let dir = std::env::temp_dir().join(format!("cvr-kill-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let reference = answers(&session_over(tables(SEED)));

    let mut child = Reap(
        Command::new(&exe).arg(WRITER).arg(&dir).stdout(Stdio::piped()).spawn().expect("writer"),
    );
    let mut committed = BufReader::new(child.0.stdout.take().expect("piped stdout")).lines();
    for _ in 0..COMMITTED_BEFORE_KILL {
        committed.next().expect("the writer died early").expect("writer stdout");
    }
    child.0.kill().expect("SIGKILL the writer");
    assert!(!child.0.wait().expect("reap the writer").success());

    let out = Command::new(&exe)
        .arg(VERIFY)
        .env("CVR_DATA_DIR", &dir)
        .stderr(Stdio::inherit())
        .output()
        .expect("verifier");
    assert!(out.status.success(), "the verifier failed");
    let got: Vec<String> = String::from_utf8_lossy(&out.stdout).lines().map(String::from).collect();
    assert_eq!(got, reference, "the restarted process answered differently");
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "kill smoke: writer killed after {COMMITTED_BEFORE_KILL} generations; the restart answered \
         all {} queries identically",
        reference.len()
    );
}
