//! `perf`: the repo's benchmark. One binary, four workloads, over the real
//! TCP path. See README.md for what each workload is for.
//!
//! ```text
//! perf --workload NAME --seed N --seconds S --trace 0|1
//! perf --selfcheck [--seconds S]
//! ```
//!
//! The last line of standard output is the result object; everything meant
//! for a person goes to standard error.

mod json;
mod layers;
mod metrics;
mod spans;
mod stats;
mod workloads;
mod world;

use json::Value;
use metrics::{MetricDef, Values, Vocabulary};
use spans::Trace;
use stats::{median_of, percentile, sorted, supported_tail};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::{Measured, Workload};
use world::{Inputs, World};

/// Runs per set in `--selfcheck`, as in the acceptance procedure.
const RUNS: usize = 10;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: None, seed: 1, seconds: 10.0, trace: false, selfcheck: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.selfcheck == args.workload.is_some() {
        return Err("give exactly one of --workload NAME and --selfcheck".to_string());
    }
    Ok(args)
}

/// Hermetic configuration: no ambient `CVR_*` knob may reach the library.
/// Threads, cache budget and data directory are set through the API.
fn scrub_env() -> Vec<String> {
    let ambient: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("CVR_"))
        .collect();
    for key in &ambient {
        std::env::remove_var(key);
    }
    ambient
}

/// Where run artefacts go: beside the executable, inside the build
/// directory — inside the checkout, and ignored by git.
fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe.parent().ok_or("executable has no directory")?.join("perf-out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// `VmHWM`, the process's peak resident set, in MB.
fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The checked-out commit, when the working directory is a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map_or_else(|_| head.to_string(), |s| s.trim().to_string()),
        None if head.is_empty() => "unknown".to_string(),
        None => head.to_string(),
    }
}

/// A data directory that exists only for the duration of a run.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn fresh(path: PathBuf) -> Result<ScratchDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn build_world(
    workload: Workload,
    inputs: &Inputs,
    data: &ScratchDir,
    trace: &mut Trace,
) -> Result<World, String> {
    let (warmup, rounds) = workload.warmup(inputs);
    world::build(inputs, workload.sf(), workload.cache_bytes(), &data.0, warmup, rounds, trace)
}

/// One run's outcome.
struct Run {
    values: Values,
    attempted: u64,
    failed: u64,
    /// Extra facts for the result file and the human-readable report.
    notes: Vec<(&'static str, Value)>,
}

fn count(measured: &mut Measured, more: &Measured) {
    measured.attempted += more.attempted;
    measured.failed += more.failed;
}

/// `--trace 0`: the end-to-end metrics, tracing off.
fn end_to_end(
    workload: Workload,
    inputs: &Inputs,
    seconds: f64,
    out: &Path,
) -> Result<Run, String> {
    let data =
        ScratchDir::fresh(out.join(format!("data-{}-{}", workload.name(), std::process::id())))?;
    let world = build_world(workload, inputs, &data, &mut Trace::default())?;

    let (paper_frames, checked) = workloads::verify_paper(&world, inputs)?;
    let mut measured = workloads::measure(workload, &world, inputs, &paper_frames, seconds)?;
    count(&mut measured, &checked);
    let times = world.times;
    let labels = world.plan_labels.clone();
    world.shutdown();
    if measured.latencies_ms.is_empty() {
        return Err("the measured phase completed no statement".to_string());
    }

    // `p50_ms` and `qps`: the median segment's. The tail: over the whole
    // phase — it must see every spike, and no segment has the samples.
    let segments = measured.segments();
    let medians: Vec<f64> = segments.iter().map(|s| stats::median(&s.sorted_ms)).collect();
    let rates: Vec<f64> = segments.iter().map(|s| s.sorted_ms.len() as f64 / s.seconds).collect();
    let latencies = sorted(&measured.latencies_ms);
    // A bounded metric never changes meaning: too few samples for a p95 is
    // an error, not a lower percentile under the same name.
    let p95_ms = percentile(&latencies, 0.95).ok_or_else(|| {
        format!("{} samples in {seconds} s cannot support p95_ms", latencies.len())
    })?;
    let (p99_ms, p99_p) = supported_tail(&latencies, 0.99);
    let mut values = Values::new();
    values.insert("p50_ms", median_of(&medians));
    values.insert("p95_ms", p95_ms);
    values.insert("qps", median_of(&rates));
    values.insert("setup_s", times.total_s);
    values.insert("rss_peak_mb", rss_peak_mb()?);
    let num = |v: f64| Value::Num(v);
    let mut notes = vec![
        ("latency_samples", num(latencies.len() as f64)),
        (
            "samples_beyond_p95",
            num(latencies.len() as f64 - (latencies.len() as f64 * 0.95).ceil()),
        ),
        ("p99_ms", num(p99_ms)),
        ("p99_percentile", num(p99_p)),
        ("measured_s", num(measured.elapsed_s)),
        ("segment_p50_ms", Value::Arr(medians.iter().map(|&v| num(v)).collect())),
        ("segment_qps", Value::Arr(rates.iter().map(|&v| num(v)).collect())),
        ("whole_phase_p50_ms", num(stats::median(&latencies))),
        ("whole_phase_qps", num(latencies.len() as f64 / measured.elapsed_s)),
        ("fail_share", num(measured.failed as f64 / measured.attempted as f64)),
        ("bench.stalls", num(measured.stalls() as f64)),
        ("result_cache_hit_share", num(measured.cached as f64 / latencies.len() as f64)),
        (
            "setup",
            Value::obj([
                ("data.gen.generate_s", num(times.generate_s)),
                ("server.session.build_s", num(times.session_build_s)),
                ("row.designs.lazy_build_s", num(times.lazy_build_s)),
                ("bench.warmup_s", num(times.warmup_s)),
            ]),
        ),
        ("pretouch_plan_labels", Value::obj(labels.into_iter().map(|(k, n)| (k, num(n as f64))))),
    ];
    if workload == Workload::Restart {
        notes.push(("restart_cycles", num(measured.restart_s.len() as f64)));
        notes.push(("restart_s", num(median_of(&measured.restart_s))));
        notes.push(("snapshot_s", num(median_of(&measured.snapshot_s))));
    }
    Ok(Run { values, attempted: measured.attempted, failed: measured.failed, notes })
}

/// `--trace 1`: the per-layer metrics. One set-up; the time budget is split
/// between an untraced pass (the workload as measured, bracketed by STATS
/// frames) and the traced walk.
fn traced(workload: Workload, inputs: &Inputs, seconds: f64, out: &Path) -> Result<Run, String> {
    let data =
        ScratchDir::fresh(out.join(format!("data-{}-{}", workload.name(), std::process::id())))?;
    let probe =
        ScratchDir::fresh(out.join(format!("probe-{}-{}", workload.name(), std::process::id())))?;
    let mut trace = Trace::default();
    let world = build_world(workload, inputs, &data, &mut trace)?;
    let (paper_frames, checked) = workloads::verify_paper(&world, inputs)?;
    let (values, mut measured) = layers::per_layer(
        workload,
        &world,
        inputs,
        &paper_frames,
        &probe.0,
        seconds / 2.0,
        &mut trace,
    )?;
    count(&mut measured, &checked);
    world.shutdown();
    let spans = out.join(format!("spans-{}.jsonl", workload.name()));
    trace.write_jsonl(&spans).map_err(|e| format!("{}: {e}", spans.display()))?;
    let notes = vec![
        ("spans_file", Value::str(spans.display().to_string())),
        ("layer_by_layer_statements", Value::Num(trace.durations("bench.stmt").len() as f64)),
    ];
    Ok(Run { values, attempted: measured.attempted, failed: measured.failed, notes })
}

/// Print every metric by name with its unit, then the result file and the
/// result line.
fn report(
    workload: Workload,
    args: &Args,
    defs: &[MetricDef],
    run: &Run,
    ambient: &[String],
    out: &Path,
) -> Result<(), String> {
    let line = metrics::result_line(defs, &run.values, run.attempted, run.failed)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let config = Value::obj([
        ("workload", Value::str(workload.name())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("commit", Value::str(commit())),
        ("nproc", Value::Num(nproc as f64)),
        ("sf", Value::Num(workload.sf())),
        ("fact_rows", Value::Num((6_000_000.0 * workload.sf()).round())),
        ("threads", Value::Num(world::THREADS as f64)),
        ("cache_bytes", Value::Num(workload.cache_bytes() as f64)),
        ("clients", Value::Num(workload.clients() as f64)),
        ("loop", Value::str("closed")),
        ("sched_workers", Value::Num(nproc as f64)),
        ("sched_queries", Value::Num(nproc.max(4) as f64)),
        ("data_dir", Value::str(out.display().to_string())),
        ("scrubbed_env", Value::Arr(ambient.iter().map(Value::str).collect())),
    ]);
    eprintln!("perf: {config}");
    for d in defs {
        eprintln!("  {:<40} {:>16.4} {}", d.name, run.values[d.name.as_str()], d.unit);
    }
    for (name, v) in &run.notes {
        eprintln!("  {name:<40} {v}");
    }
    let file = out.join(format!("result-{}-trace{}.json", workload.name(), args.trace as u8));
    let doc = Value::obj([
        ("config", config),
        ("notes", Value::obj(run.notes.iter().map(|(k, v)| (*k, v.clone())))),
        ("result", line.clone()),
    ]);
    std::fs::write(&file, format!("{doc}\n")).map_err(|e| format!("{}: {e}", file.display()))?;
    println!("{line}");
    Ok(())
}

// ---------------------------------------------------------------------------
// --selfcheck
// ---------------------------------------------------------------------------

/// Run this binary once as a child and parse the result line.
fn child_run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!("{} seed {seed} exited with {}", workload.name(), output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    json::parse(last)
}

fn metric_of(result: &Value, name: &str) -> Result<f64, String> {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("result has no metric {name}"))
}

/// The acceptance procedure, on one build: two sets of [`RUNS`] runs per
/// workload, each run on another seed. Per metric, the quartile spread of
/// each set must stay within the metric's bound (`setup_s` excepted), and
/// the second set's median must not be worse than the first's by more than
/// the bound. On `paper_cold`, two traced runs of one seed must also report
/// identical modeled I/O per statement.
fn selfcheck(end_to_end: &[MetricDef], seconds: f64) -> Result<bool, String> {
    let mut pass = true;
    println!("selfcheck: 2 sets x {RUNS} runs x {seconds} s per workload");
    println!(
        "{:<14} {:<12} {:>12} {:>8} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median#1", "spread#1", "median#2", "spread#2", "drift", "bound"
    );
    for workload in Workload::ALL {
        let mut sets: Vec<Vec<Value>> = Vec::new();
        for set in 0..2 {
            let mut results = Vec::with_capacity(RUNS);
            for seed in (0..RUNS).map(|r| (set * 1000 + r + 1) as u64) {
                let result = child_run(workload, seed, seconds, false)?;
                // Every run made, on standard error: the table below keeps
                // only medians and spreads.
                let values = result.get("metrics").map(Value::to_string).unwrap_or_default();
                eprintln!("{} seed {seed}: {values}", workload.name());
                results.push(result);
            }
            sets.push(results);
        }
        for d in end_to_end {
            let bound = d.bound.expect("validated: every end-to-end metric has a bound");
            let column = |set: &[Value]| -> Result<Vec<f64>, String> {
                set.iter().map(|r| metric_of(r, &d.name)).collect()
            };
            let (a, b) = (column(&sets[0])?, column(&sets[1])?);
            let (ma, mb) = (median_of(&a), median_of(&b));
            let drift = if d.better == "lower" { mb / ma - 1.0 } else { 1.0 - mb / ma };
            let (sa, sb) = (stats::spread(&a), stats::spread(&b));
            let steady = d.name == "setup_s" || sa.max(sb) <= bound;
            let ok = steady && drift <= bound;
            pass &= ok;
            println!(
                "{:<14} {:<12} {ma:>12.4} {sa:>8.4} {mb:>12.4} {sb:>8.4} {drift:>8.4} {bound:>6.2}  {}",
                workload.name(),
                d.name,
                if ok { "ok" } else { "FAIL" }
            );
        }
    }
    let a = child_run(Workload::PaperCold, 1, seconds, true)?;
    let b = child_run(Workload::PaperCold, 1, seconds, true)?;
    for name in [
        "storage.io.pages_read_per_stmt",
        "storage.io.bytes_read_per_stmt",
        "storage.io.seeks_per_stmt",
    ] {
        let (x, y) = (metric_of(&a, name)?, metric_of(&b, name)?);
        let ok = x == y && x > 0.0;
        pass &= ok;
        println!("paper_cold     {name}: {x} then {y}  {}", if ok { "repeats" } else { "FAIL" });
    }
    println!("selfcheck: {}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

fn run(args: &Args, ambient: &[String]) -> Result<bool, String> {
    let vocabulary = Vocabulary::load()?;
    if vocabulary.workloads != Workload::ALL.map(Workload::name) {
        return Err(format!("BENCHMARK.json names workloads {:?}", vocabulary.workloads));
    }
    if args.selfcheck {
        return selfcheck(&vocabulary.end_to_end, args.seconds);
    }
    let workload = args.workload.expect("checked by parse_args");
    let out = out_dir()?;
    let inputs = Inputs::generate(args.seed, workload == Workload::AdhocStream);
    let (defs, run) = if args.trace {
        (&vocabulary.per_layer, traced(workload, &inputs, args.seconds, &out)?)
    } else {
        (&vocabulary.end_to_end, end_to_end(workload, &inputs, args.seconds, &out)?)
    };
    report(workload, args, defs, &run, ambient, &out)?;
    Ok(run.failed == 0)
}

fn main() -> ExitCode {
    // Before the first library call, and before any thread exists.
    let ambient = scrub_env();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}\nusage: perf --workload NAME --seed N --seconds S --trace 0|1\n       perf --selfcheck [--seconds S]");
            return ExitCode::from(2);
        }
    };
    match run(&args, &ambient) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perf: FAILED (wrong answers, failed statements, or a self-check miss)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}
