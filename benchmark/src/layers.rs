//! The traced pass: per-layer numbers, measured from outside.
//!
//! Nothing inside the program is instrumented here. The harness calls each
//! layer's public function itself — the request codec, the parser, the
//! planner, `Session::run_traced`, the response codec, the wire client,
//! `persist` — wraps every call in a span, and attaches the operator span
//! tree `run_traced` already returns. Counters come from the `STATS` frame,
//! as deltas across the untraced phase of the same run.

use crate::metrics::Values;
use crate::spans::Trace;
use crate::stats::median_of;
use crate::workloads::{self, Measured, Workload};
use crate::world::{Inputs, Stmt, World, THREADS};
use cvr_core::{CStoreDb, ColumnEngine, Parallelism, QueryCtx};
use cvr_data::gen::SsbTables;
use cvr_data::table::ColumnData;
use cvr_plan::{Catalog, PhysicalChoice, PlanShape, Planner};
use cvr_row::{RowDb, RowDesign};
use cvr_server::protocol::result_response;
use cvr_server::{parse, Client, Request, Response, Statement, StatsReport};
use cvr_storage::io::{BufferPool, IoSession};
use cvr_storage::persist;
use std::path::Path;
use std::time::{Duration, Instant};

/// Repetitions of each paper query in the per-query and per-engine probes.
const PROBE_ROUNDS: usize = 3;
/// Per-query metrics, in `cvr_data::queries::all_queries` order.
const QUERY_P50: [&str; 13] = [
    "q1.1.p50_ms",
    "q1.2.p50_ms",
    "q1.3.p50_ms",
    "q2.1.p50_ms",
    "q2.2.p50_ms",
    "q2.3.p50_ms",
    "q3.1.p50_ms",
    "q3.2.p50_ms",
    "q3.3.p50_ms",
    "q3.4.p50_ms",
    "q4.1.p50_ms",
    "q4.2.p50_ms",
    "q4.3.p50_ms",
];

/// Harness-owned copies of the layers below the session, built from the
/// same tables with the same public constructors `Session` uses — so the
/// set-up spans split `server.session.build` by layer, and the engines can
/// be called directly, one plan shape at a time.
struct OwnedLayers {
    engine: ColumnEngine,
    planner: Planner,
}

impl OwnedLayers {
    fn build(tables: &std::sync::Arc<SsbTables>, trace: &mut Trace) -> OwnedLayers {
        for (name, compressed) in
            [("core.projection.build_compressed", true), ("core.projection.build_plain", false)]
        {
            trace.timed(name, None, 0, || drop(CStoreDb::build(tables.clone(), compressed)));
        }
        let engine = ColumnEngine::new(tables.clone());
        let (catalog, _) =
            trace.timed("plan.stats.catalog_build", None, 0, || Catalog::build(&engine));
        OwnedLayers { engine, planner: Planner::new(catalog) }
    }
}

/// The statements the traced phase walks: the workload's own mix, and for
/// `adhoc_stream` the far end of a pool whose near end the untraced phase
/// consumed — every statement still a first sight.
fn traced_statements<'a>(
    workload: Workload,
    inputs: &'a Inputs,
) -> Box<dyn Iterator<Item = &'a Stmt> + 'a> {
    match workload {
        Workload::PaperCold | Workload::Restart => Box::new(inputs.paper.iter().cycle()),
        Workload::DashboardHot => Box::new(inputs.dashboard.iter().cycle()),
        Workload::AdhocStream => Box::new(inputs.adhoc[1].iter().rev()),
    }
}

/// Plan shares among the statements the harness planner saw.
#[derive(Default)]
struct Choices {
    planned: u64,
    invisible: u64,
    lmjoin: u64,
    row: u64,
}

/// Statements per mode before the traced walk switches to the next one.
/// Switching every statement would break the client/server ping-pong a
/// closed loop settles into (a 30 µs cache hit measured 100 µs that way);
/// 52 is four rounds of the 13 paper queries, so on `paper_cold` every mode
/// sees every query equally often.
const MODE_BLOCK: usize = 52;

/// Walk the workload's statements for `seconds`, four ways in rotating
/// blocks: over the wire, over the wire with the server's tracer on, in
/// process, and layer by layer.
fn traced_phase(
    workload: Workload,
    world: &World,
    inputs: &Inputs,
    owned: &OwnedLayers,
    seconds: f64,
    trace: &mut Trace,
) -> Result<(Choices, Measured), String> {
    let mut client = Client::connect(world.addr).map_err(|e| format!("connect: {e}"))?;
    let mut choices = Choices::default();
    let mut seen = Measured::default();
    let started = Instant::now();
    let limit = Duration::from_secs_f64(seconds);
    for (i, s) in traced_statements(workload, inputs).enumerate() {
        if started.elapsed() >= limit {
            break;
        }
        let stmt = i as u64 + 1;
        seen.attempted += 1;
        let ok = match (i / MODE_BLOCK) % 4 {
            0 => {
                let (reply, _) =
                    trace.timed("server.wire.rtt", None, stmt, || client.query(&s.sql));
                matches!(reply, Ok(Response::Result(_)))
            }
            1 => {
                let (reply, _) = trace.timed("bench.wire.traced_rtt", None, stmt, || {
                    client.query_traced(&s.sql, 0, 0)
                });
                matches!(reply, Ok((Response::Result(_), _)))
            }
            2 => {
                let (reply, _) =
                    trace.timed("server.session.query", None, stmt, || world.session.query(&s.sql));
                reply.is_ok()
            }
            _ => layer_by_layer(world, owned, s, stmt, trace, &mut choices),
        };
        seen.failed += !ok as u64;
    }
    let _ = client.close();
    Ok((choices, seen))
}

/// Replay one statement's path through the server as direct calls, one span
/// per layer; then probe the planner and the plan memo beside it.
fn layer_by_layer(
    world: &World,
    owned: &OwnedLayers,
    s: &Stmt,
    stmt: u64,
    trace: &mut Trace,
    choices: &mut Choices,
) -> bool {
    let root = trace.open("bench.stmt", None, stmt);
    let at = Some(root);
    let (request, _) = trace.timed("server.protocol.request_codec", at, stmt, || {
        Request::decode(&Request::Query(s.sql.clone()).encode())
    });
    let (parsed, _) = trace.timed("server.parser.parse", at, stmt, || parse(&s.sql));
    let (Ok(Request::Query(_)), Ok(Statement::Select(q))) = (request, parsed) else {
        trace.close(root);
        return false;
    };
    let (ran, exec) = trace.timed("server.session.execute", at, stmt, || {
        world.session.run_traced(&q, &QueryCtx::unbounded())
    });
    let Ok((rows, record)) = ran else {
        trace.close(root);
        return false;
    };
    if let Some(record) = &record {
        trace.import(record, exec);
    }
    let (bytes, _) = trace
        .timed("server.protocol.response_encode", at, stmt, || result_response(&rows).encode());
    let (decoded, _) =
        trace.timed("server.protocol.response_decode", at, stmt, || Response::decode(&bytes));
    trace.close(root);

    // Beside the statement's own path: the plan memo now holds this
    // descriptor, and the harness-owned planner has never seen it.
    trace.timed("server.session.plan_memo_hit", None, stmt, || world.session.explain(&q));
    let (plan, _) = trace.timed("plan.enumerate.plan", None, stmt, || owned.planner.plan(&q));
    choices.planned += 1;
    match plan.choice {
        PhysicalChoice::Row(_) => choices.row += 1,
        PhysicalChoice::Column(cfg) if cfg == PlanShape::Invisible.config(cfg.compression) => {
            choices.invisible += 1
        }
        PhysicalChoice::Column(cfg) if cfg == PlanShape::LateJoin.config(cfg.compression) => {
            choices.lmjoin += 1
        }
        PhysicalChoice::Column(_) => {}
    }
    decoded.is_ok()
}

/// Client-side median per paper query, over the wire, against this
/// workload's server as the measured phase left it.
fn paper_probe(world: &World, inputs: &Inputs, values: &mut Values) -> Result<(), String> {
    let mut client = Client::connect(world.addr).map_err(|e| format!("connect: {e}"))?;
    let mut ms: Vec<Vec<f64>> = vec![Vec::new(); inputs.paper.len()];
    for _ in 0..PROBE_ROUNDS {
        for (s, samples) in inputs.paper.iter().zip(&mut ms) {
            let sent = Instant::now();
            let reply = client.query(&s.sql).map_err(|e| format!("paper probe: {e}"))?;
            samples.push(sent.elapsed().as_secs_f64() * 1e3);
            if !matches!(reply, Response::Result(_)) {
                return Err(format!("paper probe: {} did not answer with rows", s.q.id));
            }
        }
    }
    let _ = client.close();
    for (name, samples) in QUERY_P50.into_iter().zip(&ms) {
        values.insert(name, median_of(samples));
    }
    Ok(())
}

/// The paper's Figures 5 and 7 in wall-clock: each plan shape and two row
/// designs called directly over the 13 paper queries, checked against each
/// other. The median is over every (query, repetition) execution.
fn engine_probes(
    world: &World,
    inputs: &Inputs,
    owned: &OwnedLayers,
    values: &mut Values,
) -> Result<(), String> {
    let par = Parallelism::with_threads(THREADS);
    let fresh_io = || IoSession::new(BufferPool::unbounded());
    let expected: Vec<_> = inputs
        .paper
        .iter()
        .map(|s| {
            owned.engine.execute_with(&s.q, PlanShape::Invisible.config(true), par, &fresh_io())
        })
        .collect();
    let mut probe = |name: &'static str,
                     run: &dyn Fn(&Stmt) -> cvr_data::result::QueryOutput|
     -> Result<(), String> {
        let mut ms = Vec::new();
        for _ in 0..PROBE_ROUNDS {
            for (s, want) in inputs.paper.iter().zip(&expected) {
                let started = Instant::now();
                let out = std::hint::black_box(run(s));
                ms.push(started.elapsed().as_secs_f64() * 1e3);
                if out != *want {
                    return Err(format!("{name}: {} disagrees with the invisible join", s.q.id));
                }
            }
        }
        values.insert(name, median_of(&ms));
        Ok(())
    };
    for (name, shape) in [
        ("core.invisible.p50_ms", PlanShape::Invisible),
        ("core.lmjoin.p50_ms", PlanShape::LateJoin),
        ("core.em.p50_ms", PlanShape::Early),
    ] {
        probe(name, &|s| owned.engine.execute_with(&s.q, shape.config(true), par, &fresh_io()))?;
    }
    for (name, design) in [
        ("row.traditional.p50_ms", RowDesign::Traditional),
        ("row.mv.p50_ms", RowDesign::MaterializedViews),
    ] {
        let db = RowDb::build(world.tables.clone(), design);
        probe(name, &|s| db.execute_planned(&s.q, &owned.planner.fact_order(&s.q), &fresh_io()))?;
    }
    Ok(())
}

/// Bytes of user data in the tables: 8 per integer, the UTF-8 length per
/// string.
fn user_bytes(tables: &SsbTables) -> u64 {
    [&tables.lineorder, &tables.customer, &tables.supplier, &tables.part, &tables.date]
        .into_iter()
        .flat_map(|t| &t.columns)
        .map(|c| match c {
            ColumnData::Int(v) => 8 * v.len() as u64,
            ColumnData::Str(v) => v.iter().map(|s| s.len() as u64).sum(),
        })
        .sum()
}

/// `persist` called directly: one snapshot written, then loaded back.
fn storage_probes(
    world: &World,
    dir: &Path,
    trace: &mut Trace,
    values: &mut Values,
) -> Result<(), String> {
    let (written, w) = trace.timed("storage.persist.write_snapshot", None, 0, || {
        persist::write_snapshot(dir, &world.tables)
    });
    let written = written.map_err(|e| format!("write_snapshot: {e}"))?;
    let (loaded, l) =
        trace.timed("storage.persist.load_latest", None, 0, || persist::load_latest(dir));
    let (_, report) = loaded.map_err(|e| format!("load_latest: {e}"))?;
    if report.generation != written.generation || report.fallbacks != 0 {
        return Err("the snapshot just written did not load back whole".to_string());
    }
    values.insert("storage.persist.write_snapshot_s", trace.duration_ns(w) as f64 / 1e9);
    values.insert("storage.persist.load_latest_s", trace.duration_ns(l) as f64 / 1e9);
    values.insert("storage.persist.bytes", written.bytes as f64);
    values.insert(
        "storage.persist.bytes_per_user_byte",
        written.bytes as f64 / user_bytes(&world.tables) as f64,
    );
    Ok(())
}

fn stats(world: &World) -> Result<StatsReport, String> {
    let mut client = Client::connect(world.addr).map_err(|e| format!("connect: {e}"))?;
    let report = client.stats().map_err(|e| format!("STATS: {e}"))?;
    let _ = client.close();
    Ok(report)
}

fn ratio(part: u64, rest: u64) -> f64 {
    if part + rest == 0 {
        0.0
    } else {
        part as f64 / (part + rest) as f64
    }
}

/// Counter metrics: `after − before` across the untraced phase.
fn counter_metrics(before: &StatsReport, after: &StatsReport, elapsed_s: f64, values: &mut Values) {
    let sample = |r: &StatsReport, name: &str| {
        r.metrics.iter().find(|(k, _)| k == name).map_or(0, |(_, v)| *v)
    };
    let delta = |name: &str| sample(after, name).saturating_sub(sample(before, name)) as f64;
    values.insert("core.morsel.fanouts", delta("cvr_morsel_fanouts_total"));
    let busy_us = delta("cvr_morsel_worker_busy_us_sum");
    values.insert("core.morsel.worker_busy_us", busy_us);
    values.insert("core.morsel.busy_share", busy_us / (elapsed_s * 1e6 * THREADS as f64));
    values.insert("core.sched.admitted", (after.sched.admitted - before.sched.admitted) as f64);
    values.insert("core.sched.queued", (after.sched.queued - before.sched.queued) as f64);
    values.insert("core.sched.throttled", (after.sched.throttled - before.sched.throttled) as f64);
    values.insert("core.sched.shed", (after.sched.shed - before.sched.shed) as f64);
    // Histogram quantiles cannot be differenced: these two cover the
    // process so far, set-up included.
    values.insert(
        "core.sched.queue_wait_us_p50",
        sample(after, "cvr_sched_queue_wait_us_p50") as f64,
    );
    values.insert(
        "core.sched.queue_wait_us_p99",
        sample(after, "cvr_sched_queue_wait_us_p99") as f64,
    );
    let (b, a) = (before.cache.unwrap_or_default(), after.cache.unwrap_or_default());
    values.insert(
        "server.cache.result_hit_ratio",
        ratio(a.result_hits - b.result_hits, a.result_misses - b.result_misses),
    );
    values.insert(
        "server.cache.filter_hit_ratio",
        ratio(a.filter_hits - b.filter_hits, a.filter_misses - b.filter_misses),
    );
    values.insert("server.cache.inserted", (a.inserted - b.inserted) as f64);
    values.insert("server.cache.evicted", (a.evicted - b.evicted) as f64);
    values.insert("server.cache.bytes", a.bytes as f64);
}

/// Span metrics: medians for the per-call layers, per-statement means for
/// the engine operators (means add up: the operators' self times sum to
/// `server.session.execute_ms`).
fn span_metrics(trace: &Trace, choices: &Choices, values: &mut Values) {
    let by_name = trace.self_by_name();
    let median_us = |name: &str| by_name.get(name).map_or(0.0, |(_, per)| median_of(per) / 1e3);
    let total_ns = |name: &str| by_name.get(name).map_or(0, |(total, _)| *total) as f64;
    let mean = |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };

    for (metric, span) in [
        ("server.protocol.request_codec_us", "server.protocol.request_codec"),
        ("server.parser.parse_us", "server.parser.parse"),
        ("server.session.plan_memo_hit_us", "server.session.plan_memo_hit"),
        ("server.cache.result_hit_us", "server.cache.result_hit"),
        ("server.protocol.response_encode_us", "server.protocol.response_encode"),
        ("server.protocol.response_decode_us", "server.protocol.response_decode"),
        ("plan.enumerate.plan_us", "plan.enumerate.plan"),
    ] {
        values.insert(metric, median_us(span));
    }
    let rtt = trace.durations("server.wire.rtt");
    let in_process = trace.durations("server.session.query");
    values.insert("server.wire.rtt_us", median_of(&rtt) / 1e3);
    values.insert("server.wire.overhead_us", (median_of(&rtt) - median_of(&in_process)) / 1e3);
    let traced_rtt = trace.durations("bench.wire.traced_rtt");
    let untraced = median_of(&rtt);
    values.insert(
        "bench.tracing_overhead",
        if untraced > 0.0 { median_of(&traced_rtt) / untraced } else { 0.0 },
    );

    let statements = trace.durations("bench.stmt");
    let n = statements.len().max(1) as f64;
    values.insert(
        "server.session.execute_ms",
        mean(&trace.durations("server.session.execute")) / 1e6,
    );
    let mut engine_ns = total_ns("core.other");
    for (metric, span) in [
        ("core.scan.self_ms", "core.scan"),
        ("core.probe.self_ms", "core.probe"),
        ("core.hash_join.self_ms", "core.hash_join"),
        ("core.extract_aggregate.self_ms", "core.extract_aggregate"),
        ("core.filter_replay.self_ms", "core.filter_replay"),
        ("core.materialize.self_ms", "core.materialize"),
        ("core.pipeline.self_ms", "core.pipeline"),
        ("core.plan_root.self_ms", "core.plan_root"),
    ] {
        engine_ns += total_ns(span);
        values.insert(metric, total_ns(span) / n / 1e6);
    }
    let statement_ns: f64 = statements.iter().sum();
    let share = |ns: f64, of: f64| if of > 0.0 { ns / of } else { 0.0 };
    values.insert("bench.engine_share", share(engine_ns, statement_ns));
    // Accounting: what the layer spans explain of a wire round trip. The
    // statement span's own self time is harness glue, not a layer.
    let layers_ns = statement_ns - total_ns("bench.stmt");
    values.insert("bench.layer_cover", share(layers_ns / n, mean(&rtt)));

    let of_planned = |k: u64| share(k as f64, choices.planned as f64);
    values.insert("plan.choice.invisible_share", of_planned(choices.invisible));
    values.insert("plan.choice.lmjoin_share", of_planned(choices.lmjoin));
    values.insert("plan.choice.row_share", of_planned(choices.row));
}

/// Everything the traced pass measures once `world` is set up: the
/// workload untraced for `seconds` between two STATS frames, the traced
/// walk for another `seconds`, then the probes.
pub fn per_layer(
    workload: Workload,
    world: &World,
    inputs: &Inputs,
    paper_frames: &[Vec<u8>],
    probe_dir: &Path,
    seconds: f64,
    trace: &mut Trace,
) -> Result<(Values, Measured), String> {
    let owned = &OwnedLayers::build(&world.tables, trace);
    let mut values = Values::new();
    values.insert("data.gen.generate_s", world.times.generate_s);
    values.insert("server.session.build_s", world.times.session_build_s);
    values.insert("row.designs.lazy_build_s", world.times.lazy_build_s);
    values.insert("bench.warmup_s", world.times.warmup_s);
    for (metric, span) in [
        ("core.projection.build_compressed_s", "core.projection.build_compressed"),
        ("core.projection.build_plain_s", "core.projection.build_plain"),
        ("plan.stats.catalog_build_s", "plan.stats.catalog_build"),
    ] {
        values.insert(metric, trace.durations(span).iter().sum::<f64>() / 1e9);
    }
    let before = stats(world)?;
    let mut measured = workloads::measure(workload, world, inputs, paper_frames, seconds)?;
    let after = stats(world)?;
    if measured.latencies_ms.is_empty() {
        return Err("the untraced phase completed no statement".to_string());
    }
    counter_metrics(&before, &after, measured.elapsed_s, &mut values);
    let selects = measured.latencies_ms.len() as f64;
    values.insert("storage.io.pages_read_per_stmt", measured.io.pages_read as f64 / selects);
    values.insert("storage.io.bytes_read_per_stmt", measured.io.bytes_read as f64 / selects);
    values.insert("storage.io.seeks_per_stmt", measured.io.seeks as f64 / selects);
    values.insert("bench.stalls", measured.stalls() as f64);
    let latencies = crate::stats::sorted(&measured.latencies_ms);
    values.insert("bench.client_p99_ms", crate::stats::supported_tail(&latencies, 0.99).0);

    let (choices, seen) = traced_phase(workload, world, inputs, owned, seconds, trace)?;
    span_metrics(trace, &choices, &mut values);
    measured.attempted += seen.attempted;
    measured.failed += seen.failed;

    paper_probe(world, inputs, &mut values)?;
    engine_probes(world, inputs, owned, &mut values)?;
    storage_probes(world, probe_dir, trace, &mut values)?;
    // `restart` measured its cycles already; the others run two against
    // the state they left.
    if workload != Workload::Restart {
        let probe = workloads::restart_probe(world, inputs, paper_frames, 2)?;
        measured.attempted += probe.attempted;
        measured.failed += probe.failed;
        measured.snapshot_s = probe.snapshot_s;
        measured.restart_s = probe.restart_s;
        measured.first_stmt_ms = probe.first_stmt_ms;
    }
    values.insert("server.session.snapshot_s", median_of(&measured.snapshot_s));
    values.insert("server.session.restart_s", median_of(&measured.restart_s));
    values.insert("server.session.first_stmt_ms", median_of(&measured.first_stmt_ms));
    Ok((values, measured))
}
