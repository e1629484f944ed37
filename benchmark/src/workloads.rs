//! The four workloads: what each sends, how it is driven, how its answers
//! are checked.
//!
//! Every workload is a **closed loop**: a client thread sends its next
//! statement only after the previous reply arrived, so a slower server
//! receives less load. Latency is the client-side round trip of one
//! statement; checking an answer happens after the clock stops.

use crate::world::{Inputs, PaperRounds, Stmt, World};
use cvr_data::reference;
use cvr_server::{Client, Response};
use cvr_storage::io::IoStats;
use cvr_storage::persist;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A measured statement slower than this is a stall (a lazy build or a
/// lock convoy leaked into the timed phase).
pub const STALL: Duration = Duration::from_secs(1);
/// `adhoc_stream` keeps every 50th answer for the reference check.
const ADHOC_SAMPLE_EVERY: usize = 50;
/// ... and checks at most this many of them, evenly spaced: one brute-force
/// reference evaluation costs ~0.3 s at sf 0.2, and the run has a time cap.
const ADHOC_MAX_VERIFIED: usize = 20;
/// Rounds of the 13 paper queries after each RELOAD in `restart`: the
/// first runs cold against the reloaded store, the rest hit the re-warmed
/// cache. One statement in 10 is then cold, so `p50_ms` is the re-warmed hit
/// and `p95_ms` the median cold-after-restart statement.
pub const RESTART_ROUNDS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperCold,
    AdhocStream,
    DashboardHot,
    Restart,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::PaperCold, Workload::AdhocStream, Workload::DashboardHot, Workload::Restart];

    /// The name `BENCHMARK.json` and `--workload` know it by.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCold => "paper_cold",
            Workload::AdhocStream => "adhoc_stream",
            Workload::DashboardHot => "dashboard_hot",
            Workload::Restart => "restart",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// SSB scale factor. The two workloads whose statements execute get
    /// 0.2: 1.2 M fact rows, ~160 MB of user data, a 4.8 MB fact column, so
    /// every scan streams past the 2 MiB per-core L2 (the 260 MiB L3 this
    /// sandbox reports holds any scale a run has time to set up: 12 µs per
    /// fact row). `dashboard_hot` never reaches the engine, and `restart`
    /// pays that set-up again on every cycle — 13 s at 0.2, one cycle per
    /// run — so both use a quarter of the data, and `restart` gets eight
    /// cycles to take a median over.
    pub fn sf(self) -> f64 {
        match self {
            Workload::PaperCold | Workload::AdhocStream => 0.2,
            Workload::DashboardHot | Workload::Restart => 0.05,
        }
    }

    /// Result/filter cache budget. `paper_cold` turns the cache off so every
    /// statement executes; `adhoc_stream` takes a quarter of the 64 MiB
    /// default, which its 300-statement warm-up fills: the measured phase
    /// evicts from its first statement on, not from half way through.
    pub fn cache_bytes(self) -> usize {
        match self {
            Workload::PaperCold => 0,
            Workload::AdhocStream => 16 << 20,
            Workload::DashboardHot | Workload::Restart => 64 << 20,
        }
    }

    /// Client connections, one closed-loop thread each. Only `adhoc_stream`
    /// is about contention. `dashboard_hot` with two connections keeps four
    /// threads spinning on this sandbox's two cores, and what it then
    /// measures is the kernel's placement of them: on identical code `p50_ms`
    /// and `qps` spread 8–10 % between runs, against 4 % and 5 % with one
    /// connection.
    pub fn clients(self) -> usize {
        match self {
            Workload::PaperCold | Workload::DashboardHot | Workload::Restart => 1,
            Workload::AdhocStream => 2,
        }
    }

    /// The statements set-up warms the server with, and how many rounds.
    pub fn warmup(self, inputs: &Inputs) -> (&[Stmt], usize) {
        match self {
            Workload::PaperCold | Workload::Restart => (&inputs.paper, 2),
            Workload::AdhocStream => (&inputs.reserved[..300], 1),
            Workload::DashboardHot => (&inputs.dashboard, 2),
        }
    }
}

/// What the measured phase saw.
#[derive(Debug, Default)]
pub struct Measured {
    /// Client-side latency of every measured `SELECT`, in ms, and when it
    /// completed, in seconds since its connection's loop started.
    pub latencies_ms: Vec<f64>,
    pub done_s: Vec<f64>,
    /// Where a workload cut its phase into segments (seconds since the loop
    /// started); empty when it left that to [`Measured::segments`].
    pub segment_ends_s: Vec<f64>,
    /// Statements sent (every kind) and how many failed: an `ERROR` frame,
    /// a transport error, or an answer that did not match its reference.
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of the measured phase.
    pub elapsed_s: f64,
    /// Modeled I/O the measured `SELECT`s reported, summed.
    pub io: IoStats,
    /// Measured `SELECT`s served from the result cache.
    pub cached: u64,
    /// Per cycle: SNAPSHOT round trip; RELOAD until all 13 paper queries
    /// have answered once; first `SELECT` after RELOAD (ms).
    pub snapshot_s: Vec<f64>,
    pub restart_s: Vec<f64>,
    pub first_stmt_ms: Vec<f64>,
}

/// Equal spans of time a phase is cut into when the workload marked no
/// segment ends of its own.
const WINDOWS: usize = 10;

/// One slice of a measured phase: the latencies of the `SELECT`s that
/// completed in it, ascending, and how long it lasted.
pub struct Segment {
    pub sorted_ms: Vec<f64>,
    pub seconds: f64,
}

impl Measured {
    /// Cut the phase at the workload's marks (`restart`: one segment per
    /// cycle), or into [`WINDOWS`] equal spans of time. `p50_ms` and `qps`
    /// are medians over segments, so a neighbour's burst on the shared host
    /// — or `restart`'s first, page-faulting cycle — moves one segment, not
    /// the run. Segments in which nothing completed are dropped.
    pub fn segments(&self) -> Vec<Segment> {
        let even = (1..=WINDOWS).map(|k| self.elapsed_s * k as f64 / WINDOWS as f64);
        let ends: Vec<f64> = if self.segment_ends_s.is_empty() {
            even.collect()
        } else {
            self.segment_ends_s.clone()
        };
        let mut start = 0.0;
        let mut out = Vec::with_capacity(ends.len());
        for end in ends {
            let inside = self
                .done_s
                .iter()
                .zip(&self.latencies_ms)
                .filter(|(t, _)| **t > start && **t <= end);
            let ms: Vec<f64> = inside.map(|(_, ms)| *ms).collect();
            if !ms.is_empty() {
                out.push(Segment { sorted_ms: crate::stats::sorted(&ms), seconds: end - start });
            }
            start = end;
        }
        out
    }

    pub fn stalls(&self) -> usize {
        let limit = STALL.as_secs_f64() * 1e3;
        self.latencies_ms.iter().filter(|&&ms| ms > limit).count()
    }

    fn absorb(&mut self, other: Measured) {
        self.latencies_ms.extend(other.latencies_ms);
        self.done_s.extend(other.done_s);
        self.segment_ends_s.extend(other.segment_ends_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.io.add(&other.io);
        self.cached += other.cached;
        self.snapshot_s.extend(other.snapshot_s);
        self.restart_s.extend(other.restart_s);
        self.first_stmt_ms.extend(other.first_stmt_ms);
    }
}

/// The comparable bytes of a response: its frame with the `cached` flag
/// cleared (the one byte a cache hit may change).
pub fn frame(response: &Response) -> Vec<u8> {
    response.normalized().encode()
}

/// One connection's closed loop.
struct Conn {
    client: Client,
    addr: SocketAddr,
    /// When this connection's loop started.
    started: Instant,
    out: Measured,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Conn { client, addr, started: Instant::now(), out: Measured::default() })
    }

    /// Send one statement and time its round trip. Transport errors count
    /// as failures and re-dial; `ERROR` frames count as failures.
    fn send(&mut self, sql: &str) -> Option<(Response, f64)> {
        self.out.attempted += 1;
        let sent = Instant::now();
        let reply = self.client.query(sql);
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        match reply {
            Ok(Response::Error { code, message }) => {
                eprintln!("perf: ERROR {code} for `{sql}`: {message}");
                self.out.failed += 1;
                None
            }
            Ok(response) => Some((response, ms)),
            Err(e) => {
                eprintln!("perf: transport error for `{sql}`: {e}");
                self.out.failed += 1;
                if let Ok(client) = Client::connect(self.addr) {
                    self.client = client;
                }
                None
            }
        }
    }

    /// Send a `SELECT`, record its latency and I/O, and return its result.
    fn select(&mut self, sql: &str) -> Option<Response> {
        let (response, ms) = self.send(sql)?;
        let Response::Result(rs) = &response else {
            eprintln!("perf: `{sql}` answered with a non-RESULT frame");
            self.out.failed += 1;
            return None;
        };
        self.out.latencies_ms.push(ms);
        self.out.done_s.push(self.started.elapsed().as_secs_f64());
        self.out.io.add(&rs.io);
        self.out.cached += rs.cached as u64;
        Some(response)
    }

    /// Count a mismatch against the reference as a failed statement.
    fn expect(&mut self, ok: bool, what: std::fmt::Arguments) {
        if !ok {
            eprintln!("perf: wrong answer: {what}");
            self.out.failed += 1;
        }
    }

    fn finish(self) -> Measured {
        let mut out = self.out;
        out.elapsed_s = self.started.elapsed().as_secs_f64();
        let _ = self.client.close();
        out
    }
}

/// The brute-force reference answers to `stmts`, as result bytes. One
/// evaluation walks the fact table row by row on one thread, so the list is
/// split over the two cores.
fn reference_answers(world: &World, stmts: &[&Stmt]) -> Vec<Vec<u8>> {
    let answer = |s: &&Stmt| reference::evaluate(&world.tables, &s.q).to_bytes();
    let (left, right) = stmts.split_at(stmts.len() / 2);
    std::thread::scope(|scope| {
        let other = scope.spawn(|| right.iter().map(answer).collect::<Vec<_>>());
        let mut answers: Vec<Vec<u8>> = left.iter().map(answer).collect();
        answers.extend(other.join().expect("reference thread panicked"));
        answers
    })
}

/// Check the 13 paper answers over the wire against the brute-force
/// reference evaluator, once, outside any timed region. Returns the answers'
/// frames (the pre-SNAPSHOT reference the restart cycles compare with).
pub fn verify_paper(world: &World, inputs: &Inputs) -> Result<(Vec<Vec<u8>>, Measured), String> {
    let expected = reference_answers(world, &inputs.paper.iter().collect::<Vec<_>>());
    let (checked, mut frames) = drive(world.addr, 1, |_, conn, _| {
        let mut frames = Vec::with_capacity(inputs.paper.len());
        for (s, expected) in inputs.paper.iter().zip(&expected) {
            let response = conn.select(&s.sql);
            let same =
                matches!(&response, Some(Response::Result(rs)) if rs.output_bytes == *expected);
            conn.expect(same, format_args!("{} differs from the reference", s.q.id));
            frames.push(response.as_ref().map(frame).unwrap_or_default());
        }
        frames
    })?;
    Ok((frames.remove(0), checked))
}

/// Run `workload`'s measured phase for `seconds`.
pub fn measure(
    workload: Workload,
    world: &World,
    inputs: &Inputs,
    paper_frames: &[Vec<u8>],
    seconds: f64,
) -> Result<Measured, String> {
    let limit = Duration::from_secs_f64(seconds);
    match workload {
        Workload::PaperCold => {
            // Stop only at a round boundary: every run executes each of the
            // 13 queries equally often, so per-statement I/O counts repeat
            // exactly however many rounds the time allowed.
            drive(world.addr, workload.clients(), |_, conn, started| {
                let mut rounds = inputs.paper_rounds();
                while started.elapsed() < limit {
                    for &i in rounds.next_round() {
                        let s = &inputs.paper[i];
                        if let Some(r) = conn.select(&s.sql) {
                            conn.expect(
                                frame(&r) == paper_frames[i],
                                format_args!("{} changed", s.q.id),
                            );
                        }
                    }
                }
            })
            .map(|(measured, _)| measured)
        }
        Workload::DashboardHot => {
            // Reference frames: each statement's first execution in the
            // warm-up. The 30 generated ones must have run cold then; the
            // paper ones (which the pre-touch may have cached) were just
            // checked against the reference evaluator.
            let reference: Vec<Vec<u8>> = world.first_responses.iter().map(frame).collect();
            let cold = world.first_responses[inputs.paper.len()..]
                .iter()
                .all(|r| matches!(r, Response::Result(rs) if !rs.cached));
            if !cold || reference.len() != inputs.dashboard.len() {
                return Err("dashboard reference frames are not first executions".to_string());
            }
            drive(world.addr, workload.clients(), |c, conn, started| {
                // The connections walk the list evenly spaced around the lap.
                let offset = c * inputs.dashboard.len() / workload.clients();
                while started.elapsed() < limit {
                    for i in 0..inputs.dashboard.len() {
                        let at = (i + offset) % inputs.dashboard.len();
                        if let Some(r) = conn.select(&inputs.dashboard[at].sql) {
                            conn.expect(
                                frame(&r) == reference[at],
                                format_args!("dashboard frame changed"),
                            );
                        }
                    }
                }
            })
            .map(|(measured, _)| measured)
        }
        Workload::AdhocStream => {
            let (mut out, sampled) = drive(world.addr, workload.clients(), |c, conn, started| {
                let mut kept = Vec::new();
                for (i, s) in inputs.adhoc[c].iter().enumerate() {
                    if started.elapsed() >= limit {
                        break;
                    }
                    if let (Some(Response::Result(rs)), true) =
                        (conn.select(&s.sql), i % ADHOC_SAMPLE_EVERY == 0)
                    {
                        kept.push((i, rs.output_bytes));
                    }
                }
                kept
            })?;
            // The reference check, after the clock stopped.
            let mut checked: Vec<(&Stmt, &Vec<u8>)> = Vec::new();
            for (c, kept) in sampled.iter().enumerate() {
                let step = kept.len().div_ceil(ADHOC_MAX_VERIFIED / 2).max(1);
                checked.extend(kept.iter().step_by(step).map(|(i, b)| (&inputs.adhoc[c][*i], b)));
            }
            let stmts: Vec<&Stmt> = checked.iter().map(|(s, _)| *s).collect();
            for ((s, bytes), expected) in checked.iter().zip(reference_answers(world, &stmts)) {
                if **bytes != expected {
                    eprintln!("perf: wrong answer: `{}`", s.sql);
                    out.failed += 1;
                }
            }
            Ok(out)
        }
        Workload::Restart => {
            let dir = world.session.data_dir().ok_or("restart needs a data directory")?;
            drive(world.addr, workload.clients(), |_, conn, started| {
                let mut rounds = inputs.paper_rounds();
                while started.elapsed() < limit {
                    restart_cycle(conn, inputs, &mut rounds, paper_frames, RESTART_ROUNDS);
                    conn.out.segment_ends_s.push(started.elapsed().as_secs_f64());
                    let _ = persist::prune(&dir, 2);
                }
            })
            .map(|(measured, _)| measured)
        }
    }
}

/// `cycles` SNAPSHOT → RELOAD → one round of the paper queries: the short
/// restart probe the traced pass runs against the state a workload left.
pub fn restart_probe(
    world: &World,
    inputs: &Inputs,
    paper_frames: &[Vec<u8>],
    cycles: usize,
) -> Result<Measured, String> {
    drive(world.addr, 1, |_, conn, _| {
        let mut rounds = inputs.paper_rounds();
        for _ in 0..cycles {
            restart_cycle(conn, inputs, &mut rounds, paper_frames, 1);
        }
    })
    .map(|(measured, _)| measured)
}

/// One restart cycle over the wire. Every post-RELOAD answer must be
/// byte-identical to the pre-SNAPSHOT one.
fn restart_cycle(
    conn: &mut Conn,
    inputs: &Inputs,
    order: &mut PaperRounds,
    paper_frames: &[Vec<u8>],
    rounds: usize,
) {
    if let Some((response, ms)) = conn.send("SNAPSHOT") {
        conn.expect(
            matches!(response, Response::Snapshot(_)),
            format_args!("SNAPSHOT answered otherwise"),
        );
        conn.out.snapshot_s.push(ms / 1e3);
    }
    let reload_sent = Instant::now();
    let reloaded = conn.send("RELOAD").map(|(r, _)| matches!(r, Response::Snapshot(_)));
    conn.expect(reloaded != Some(false), format_args!("RELOAD answered otherwise"));
    for round in 0..rounds {
        for (nth, &i) in order.next_round().iter().enumerate() {
            let s = &inputs.paper[i];
            let before = conn.out.latencies_ms.len();
            if let Some(r) = conn.select(&s.sql) {
                let same = frame(&r) == paper_frames[i];
                conn.expect(same, format_args!("{} changed across RELOAD", s.q.id));
            }
            if round == 0 && nth == 0 {
                conn.out.first_stmt_ms.extend(conn.out.latencies_ms.get(before).copied());
            }
        }
        if round == 0 && reloaded == Some(true) {
            conn.out.restart_s.push(reload_sent.elapsed().as_secs_f64());
        }
    }
}

/// Run `clients` closed loops, released together; returns what they saw,
/// merged, and each loop's own return value. `body(connection index,
/// connection, start instant)` is one client's loop.
fn drive<T: Send>(
    addr: SocketAddr,
    clients: usize,
    body: impl Fn(usize, &mut Conn, Instant) -> T + Sync,
) -> Result<(Measured, Vec<T>), String> {
    let conns: Vec<Conn> = (0..clients).map(|_| Conn::connect(addr)).collect::<Result<_, _>>()?;
    let barrier = Barrier::new(clients);
    let results: Vec<(Measured, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                let (barrier, body) = (&barrier, &body);
                scope.spawn(move || {
                    barrier.wait();
                    let started = Instant::now();
                    conn.started = started;
                    let value = body(c, &mut conn, started);
                    (conn.finish(), value)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut out = Measured::default();
    let mut values = Vec::with_capacity(clients);
    for (measured, value) in results {
        out.absorb(measured);
        values.push(value);
    }
    Ok((out, values))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured(samples: &[(f64, f64)], elapsed_s: f64, ends: &[f64]) -> Measured {
        Measured {
            done_s: samples.iter().map(|s| s.0).collect(),
            latencies_ms: samples.iter().map(|s| s.1).collect(),
            elapsed_s,
            segment_ends_s: ends.to_vec(),
            ..Measured::default()
        }
    }

    #[test]
    fn an_unmarked_phase_is_cut_into_equal_windows() {
        // One statement per 0.1 s for 10 s; the statements of second 3 are slow.
        let samples: Vec<(f64, f64)> = (1..=100)
            .map(|i| (i as f64 / 10.0, if (31..=40).contains(&i) { 9.0 } else { 1.0 }))
            .collect();
        let segments = measured(&samples, 10.0, &[]).segments();
        assert_eq!(segments.len(), WINDOWS);
        assert!(segments.iter().all(|s| s.sorted_ms.len() == 10 && (s.seconds - 1.0).abs() < 1e-9));
        let slow: Vec<usize> = (0..WINDOWS).filter(|&k| segments[k].sorted_ms[0] == 9.0).collect();
        assert_eq!(slow, [3], "the burst stays inside one window");
    }

    #[test]
    fn a_marked_phase_is_cut_at_its_marks_and_empty_segments_are_dropped() {
        let samples = [(0.5, 3.0), (1.0, 1.0), (2.5, 2.0), (4.0, 7.0)];
        let segments = measured(&samples, 4.0, &[1.0, 2.0, 4.0]).segments();
        assert_eq!(segments.len(), 2, "nothing completed in (1, 2]");
        assert_eq!((segments[0].sorted_ms.clone(), segments[0].seconds), (vec![1.0, 3.0], 1.0));
        assert_eq!((segments[1].sorted_ms.clone(), segments[1].seconds), (vec![2.0, 7.0], 2.0));
    }
}
