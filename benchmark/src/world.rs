//! Inputs and set-up: everything that happens before a timed statement.
//!
//! Inputs (statement lists) are a pure function of `--seed`. Set-up builds
//! the system under test — generate SSB, build one [`Session`], serve it on
//! a loopback port — then *pre-touches* it so lazy builds land in `setup_s`
//! rather than in some unlucky statement's latency, then warms it up.

use crate::spans::Trace;
use cvr_core::morsel::Parallelism;
use cvr_data::gen::rng::SplitMix64;
use cvr_data::gen::{SsbConfig, SsbTables};
use cvr_data::queries::{all_queries, SsbQuery};
use cvr_data::workload::WorkloadConfig;
use cvr_server::{render_sql, serve, Client, Response, Server, Session};
use std::collections::{BTreeMap, HashSet};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The data set is fixed, as dbgen's is at a scale factor: `--seed` draws
/// the *workload* (statement streams and orders), not the tables. Measured
/// on this commit at sf 0.05, reseeding the tables moves `p50_ms` of `paper_cold` by
/// ±8 % (selectivities shift, the planner flips Q1.x between `row:MV` and
/// `tICL`), six times the run-to-run spread on fixed tables — a later
/// comparison could not tell a regression from a reseed.
pub const DATA_SEED: u64 = 0x55B0_2008;
/// Morsel workers per query, set through the API (never `CVR_THREADS`).
pub const THREADS: usize = 2;
/// Generated descriptors scanned by the pre-touch: ≥ 5000 after dropping
/// duplicates, enough to meet a plan label only 1 statement in 1000 picks.
const PRETOUCH_DESCRIPTORS: usize = 21 * BATCH;
/// `cvr_data::workload` numbers a batch's queries in a `u8`.
const BATCH: usize = 255;
/// Distinct statements generated per `adhoc_stream` connection: about
/// ten times what a connection gets through in ten seconds today.
const ADHOC_POOL_BATCHES: usize = 40;

/// `dashboard_hot` draws only statements that can return at most this many
/// groups: a dashboard tile shows a small aggregate. Unfiltered, one seed in
/// three draws a `c_city × s_city` grouping whose 800 KB frame alone sets
/// the workload's `qps` (measured: 10 k to 40 k across seeds).
const DASHBOARD_MAX_GROUPS: usize = 400;
/// No generated statement may be able to return more groups than this. It
/// drops the 1 % grouped by `c_city × s_city ×` a third column: at sf 0.2
/// such an answer has ~800 000 rows, and its 29 MB frame is over the wire
/// protocol's 16 MiB cap (`CVR_MAX_FRAME`) — the client fails the statement.
/// The largest answer left (`c_city × s_nation × p_category`) is ~6 MB.
const MAX_GROUPS: usize = 200_000;

/// Upper bound on the rows `q` returns: the product of its group-by
/// columns' SSB cardinalities.
fn max_groups(q: &SsbQuery) -> usize {
    q.group_by
        .iter()
        .map(|g| match g.column {
            "c_city" | "s_city" => 250,
            "c_nation" | "s_nation" | "p_category" => 25,
            "d_monthnuminyear" => 12,
            "d_year" => 7,
            _ => 5, // regions, market segments, manufacturers, selling seasons
        })
        .product()
}

/// Seed streams: each consumer of `--seed` draws from its own.
#[derive(Clone, Copy)]
enum Stream {
    PaperOrder = 1,
    Reserved = 2,
    Dashboard = 3,
    AdhocConn0 = 4,
    AdhocConn1 = 5,
}

fn derive(seed: u64, stream: Stream, index: usize) -> u64 {
    let mut rng = SplitMix64::new(seed ^ ((stream as u64) << 56) ^ ((index as u64) << 32));
    rng.next_u64()
}

/// A statement: its SQL text and the descriptor it was rendered from (the
/// reference evaluator's input — independent of the SQL parser under test).
#[derive(Clone)]
pub struct Stmt {
    pub sql: String,
    pub q: SsbQuery,
}

fn stmts(queries: Vec<SsbQuery>) -> Vec<Stmt> {
    queries.into_iter().map(|q| Stmt { sql: render_sql(&q), q }).collect()
}

fn generated(seed: u64, stream: Stream, batch: usize, count: usize) -> Vec<Stmt> {
    let mut queries = WorkloadConfig { seed: derive(seed, stream, batch), count }.generate();
    queries.retain(|q| max_groups(q) <= MAX_GROUPS);
    stmts(queries)
}

/// The statement lists of one run.
pub struct Inputs {
    /// The 13 paper queries, in flight order.
    pub paper: Vec<Stmt>,
    /// Seed of the orders `paper_cold` and `restart` walk them in; see
    /// [`PaperRounds`].
    paper_seed: u64,
    /// `dashboard_hot`'s 43 statements: the paper queries plus 30 generated.
    pub dashboard: Vec<Stmt>,
    /// `adhoc_stream`'s per-connection streams: pairwise distinct, and
    /// distinct from the reserved pool.
    pub adhoc: [Vec<Stmt>; 2],
    /// Reserved-seed statements no workload measures: pre-touch and
    /// `adhoc_stream`'s warm-up draw from here.
    pub reserved: Vec<Stmt>,
}

impl Inputs {
    /// This run's stream of paper-query rounds.
    pub fn paper_rounds(&self) -> PaperRounds {
        PaperRounds {
            rng: SplitMix64::new(self.paper_seed),
            order: (0..self.paper.len()).collect(),
        }
    }

    /// Generate the lists for `seed`. `adhoc` is only filled when asked:
    /// twenty thousand statements are not free and three workloads ignore
    /// them.
    pub fn generate(seed: u64, with_adhoc: bool) -> Inputs {
        let paper = stmts(all_queries());
        let mut seen: HashSet<String> = paper.iter().map(|s| s.sql.clone()).collect();
        let mut distinct = |batch: Vec<Stmt>| -> Vec<Stmt> {
            batch.into_iter().filter(|s| seen.insert(s.sql.clone())).collect()
        };
        let reserved: Vec<Stmt> = (0..PRETOUCH_DESCRIPTORS / BATCH)
            .flat_map(|b| distinct(generated(seed, Stream::Reserved, b, BATCH)))
            .collect();
        let mut dashboard = paper.clone();
        let mut batch = 0;
        while dashboard.len() < 43 {
            let more = distinct(generated(seed, Stream::Dashboard, batch, BATCH));
            let room = 43 - dashboard.len();
            let tiles = more.into_iter().filter(|s| max_groups(&s.q) <= DASHBOARD_MAX_GROUPS);
            dashboard.extend(tiles.take(room));
            batch += 1;
        }
        let mut adhoc = [Vec::new(), Vec::new()];
        if with_adhoc {
            for (conn, stream) in [Stream::AdhocConn0, Stream::AdhocConn1].into_iter().enumerate() {
                adhoc[conn] = (0..ADHOC_POOL_BATCHES)
                    .flat_map(|b| distinct(generated(seed, stream, b, BATCH)))
                    .collect();
            }
        }
        let paper_seed = derive(seed, Stream::PaperOrder, 0);
        Inputs { paper, paper_seed, dashboard, adhoc, reserved }
    }
}

/// Rounds over the paper queries, each in a fresh seeded order. A query's
/// latency depends a little on its predecessor (which dimension tables and
/// fact columns are still cache-warm): one fixed order per seed moved
/// `paper_cold`'s `p50_ms` by ±5 % between seeds. Reshuffling every round
/// averages the predecessors out within a run.
pub struct PaperRounds {
    rng: SplitMix64,
    order: Vec<usize>,
}

impl PaperRounds {
    /// Indices into [`Inputs::paper`] for the next round.
    pub fn next_round(&mut self) -> &[usize] {
        for k in (1..self.order.len()).rev() {
            self.order.swap(k, self.rng.index(k + 1));
        }
        &self.order
    }
}

/// Where one set-up's time went, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub session_build_s: f64,
    pub lazy_build_s: f64,
    pub warmup_s: f64,
    pub total_s: f64,
}

/// The system under test, served and warm.
pub struct World {
    pub tables: Arc<SsbTables>,
    pub session: Arc<Session>,
    pub server: Server,
    pub addr: SocketAddr,
    pub times: SetupTimes,
    /// The warm-up's first-round responses, one per warm-up statement: the
    /// cold reference frames `dashboard_hot` compares against.
    pub first_responses: Vec<Response>,
    /// Distinct plan labels the pre-touch saw, with their share of the
    /// reserved pool.
    pub plan_labels: BTreeMap<String, usize>,
}

impl World {
    /// Stop serving and free the store.
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Build a [`World`]: generate SSB at scale factor `sf` (seeded), build the
/// session with an explicit thread count, cache budget and data directory
/// (API only — the environment was scrubbed), bind, pre-touch, warm up.
/// Spans of the four phases go to `trace` under statement id 0.
pub fn build(
    inputs: &Inputs,
    sf: f64,
    cache_bytes: usize,
    data_dir: &Path,
    warmup: &[Stmt],
    warmup_rounds: usize,
    trace: &mut Trace,
) -> Result<World, String> {
    let started = Instant::now();
    let root = trace.open("bench.setup", None, 0);
    let (tables, gen_span) = trace.timed("data.gen.generate", Some(root), 0, || {
        Arc::new(SsbConfig { sf, seed: DATA_SEED }.generate())
    });
    let (session, build_span) = trace.timed("server.session.build", Some(root), 0, || {
        Arc::new(Session::with_cache_budget(
            tables.clone(),
            Parallelism::with_threads(THREADS),
            cache_bytes,
        ))
    });
    session.set_data_dir(Some(data_dir.to_path_buf()));
    let server = serve(session.clone(), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();

    // Pre-touch: plan the paper queries and every reserved descriptor, and
    // execute the first one seen per distinct plan label. Row designs are
    // built lazily by the first statement whose plan picks them; this makes
    // that statement ours.
    let (plan_labels, lazy_span) = trace.timed("row.designs.lazy_build", Some(root), 0, || {
        let mut labels: BTreeMap<String, usize> = BTreeMap::new();
        for s in inputs.paper.iter().chain(&inputs.reserved) {
            let label = session.explain(&s.q).choice.label();
            let seen = labels.entry(label).or_default();
            if *seen == 0 {
                session.run(&s.q);
            }
            *seen += 1;
        }
        labels
    });

    let warm_span = trace.open("bench.warmup", Some(root), 0);
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut first_responses = Vec::with_capacity(warmup.len());
    for round in 0..warmup_rounds {
        for s in warmup {
            let response = client.query(&s.sql).map_err(|e| format!("warm-up: {e}"))?;
            if round == 0 {
                first_responses.push(response);
            }
        }
    }
    client.close().map_err(|e| format!("close: {e}"))?;
    trace.close(warm_span);
    trace.close(root);

    let secs = |id: usize| trace.duration_ns(id) as f64 / 1e9;
    let times = SetupTimes {
        generate_s: secs(gen_span),
        session_build_s: secs(build_span),
        lazy_build_s: secs(lazy_span),
        warmup_s: secs(warm_span),
        total_s: started.elapsed().as_secs_f64(),
    };
    Ok(World { tables, session, server, addr, times, first_responses, plan_labels })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_never_share_a_statement() {
        let a = Inputs::generate(7, true);
        let b = Inputs::generate(7, true);
        let sqls = |v: &[Stmt]| v.iter().map(|s| s.sql.clone()).collect::<Vec<_>>();
        assert_eq!(sqls(&a.dashboard), sqls(&b.dashboard));
        assert_eq!(sqls(&a.adhoc[1]), sqls(&b.adhoc[1]));
        assert_ne!(sqls(&a.adhoc[0]), sqls(&Inputs::generate(8, true).adhoc[0]));

        assert_eq!(a.paper.len(), 13);
        let (mut ra, mut rb, mut rc) =
            (a.paper_rounds(), b.paper_rounds(), Inputs::generate(8, false).paper_rounds());
        let first = ra.next_round().to_vec();
        assert_eq!(first, rb.next_round());
        assert_ne!(first, rc.next_round());
        assert_ne!(first, ra.next_round(), "every round is reshuffled");
        let mut sorted = first;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..13).collect::<Vec<_>>());
        assert_eq!(a.dashboard.len(), 43);
        assert!(a.dashboard[13..].iter().all(|s| max_groups(&s.q) <= DASHBOARD_MAX_GROUPS));
        assert!(a.reserved.len() >= 5000, "{}", a.reserved.len());
        assert!(a.adhoc.iter().all(|pool| pool.len() > 8_000));
        let all: Vec<&Stmt> =
            a.dashboard.iter().chain(&a.reserved).chain(&a.adhoc[0]).chain(&a.adhoc[1]).collect();
        assert!(all[13..].iter().all(|s| max_groups(&s.q) <= MAX_GROUPS), "a generated one");
        let distinct: HashSet<&str> = all.iter().map(|s| s.sql.as_str()).collect();
        assert_eq!(distinct.len(), all.len(), "a statement appears twice");
        assert!(Inputs::generate(7, false).adhoc[0].is_empty());
    }
}
