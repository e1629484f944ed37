//! `paper agg`: the code-level aggregator (group-id composition over
//! dictionary/FoR codes, direct or `u64`-hash accumulation,
//! decode-once-per-group finish) vs the Value-keyed reference grouper
//! (per-row key vector allocation + clones + `Vec<Value>` hashing), printed
//! as a table and written to [`OUT`] — the file
//! `cvr_plan::CpuRates::from_agg_bench_json` recalibrates the planner's
//! aggregation cost term from.
//!
//! ```text
//! cargo run --release -p cvr-bench --bin paper -- agg [--sf F] [--runs R] [--n N] [--min-speedup X]
//! ```
//!
//! Two cell families:
//!
//! * **Query cells** — phase 3 as the engine runs it, over inputs from the
//!   real sf-scaled store: sampled fact positions and the FK-derived
//!   dimension positions, then the plan shapes' extract→aggregate kernel
//!   (`AggWorker`: every group column extracted at its positions, the
//!   measures gathered, each row's term added to its group) timed end to
//!   end under both strategies — value: `extract_at` + a key clone per row
//!   into the reference grouper; code: codes composed into group ids by
//!   stride + one accumulation loop. Q2.1/Q3.1 run at three sampled
//!   selectivities; every other grouped paper query at one.
//! * **Synthetic cells** — pure accumulation across group-count regimes
//!   (single group, direct two/three-column ids, hash fallback).
//!
//! The two tails answer byte-identically — outputs and IoStats, through the
//! engine's own kernel — which `crates/core/tests/prop_agg.rs` checks for
//! every grouped paper query. This subcommand fails when the best
//! flight-2/3 query-cell speedup falls below `--min-speedup` (default 3).

use crate::Db;
use cvr_core::agg::{AggStrategy, CodeGrouper, GroupLayout, Grouper};
use cvr_core::extract::gather_ints;
use cvr_core::poslist::PosList;
use cvr_core::{CStoreDb, EngineConfig};
use cvr_data::queries::{all_queries, SsbQuery};
use cvr_data::schema::Dim;
use cvr_data::value::Value;
use cvr_index::hashidx::IntHashMap;
use cvr_storage::io::IoSession;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// The report `CpuRates::from_agg_bench_json` reads back.
const OUT: &str = "BENCH_agg.json";

/// One measured cell: both tails over the same rows.
struct Cell {
    cell: String,
    rows: usize,
    groups: usize,
    value_ns_per_row: f64,
    code_ns_per_row: f64,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.value_ns_per_row / self.code_ns_per_row.max(1e-12)
    }
}

/// Best-of-`runs` wall time of `f`, in ns per row.
fn time_per_row(rows: usize, runs: usize, mut f: impl FnMut() -> usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs.max(1) {
        let t = Instant::now();
        let groups = f();
        let dt = t.elapsed().as_secs_f64();
        black_box(groups);
        best = best.min(dt);
    }
    best * 1e9 / rows.max(1) as f64
}

/// Phase-3 inputs for one grouped query at one sampling stride: sampled
/// fact positions and, per group column, the dimension positions their
/// foreign keys join to.
struct QueryInputs {
    positions: Vec<u32>,
    /// Per group column: arbitrary-order dimension positions.
    dim_positions: Vec<Vec<u32>>,
}

fn query_inputs(db: &CStoreDb, q: &SsbQuery, stride: usize, io: &IoSession) -> QueryInputs {
    let n = db.fact_rows() as u32;
    let positions: Vec<u32> = (0..n).step_by(stride.max(1)).collect();
    let pos = PosList::explicit(positions.clone(), n);
    let mut fk_cache: std::collections::HashMap<Dim, Vec<u32>> = std::collections::HashMap::new();
    let mut dim_positions = Vec::with_capacity(q.group_by.len());
    for g in &q.group_by {
        let dim = g.dim;
        let cached = fk_cache.entry(dim).or_insert_with(|| {
            let fks = gather_ints(db.fact.column(dim.fact_fk_column()), &pos, io);
            if db.dim(dim).dense_keys {
                fks.into_iter().map(|k| k as u32).collect()
            } else {
                let keys = db.dim(dim).store.column(dim.key_column()).column.as_int().decode();
                let map =
                    IntHashMap::from_pairs(keys.iter().enumerate().map(|(p, &k)| (k, p as u32)));
                fks.into_iter().map(|k| map.get(k).expect("FK joins dim")).collect()
            }
        });
        dim_positions.push(cached.clone());
    }
    QueryInputs { positions, dim_positions }
}

/// Time both aggregation tails for one grouped query at one stride: the
/// engine's phase-3 kernel under the code-level strategy and under the
/// `Value`-keyed reference.
fn measure_query(
    db: &CStoreDb,
    q: &SsbQuery,
    stride: usize,
    runs: usize,
    io: &IoSession,
) -> Option<Cell> {
    let strat = AggStrategy::for_query(db, q);
    if q.group_by.is_empty() || !strat.is_code_level() {
        return None;
    }
    let inp = query_inputs(db, q, stride, io);
    let rows = inp.positions.len();
    let tail = |strat: &AggStrategy| {
        let mut agg = strat.worker();
        agg.begin(rows);
        for (gi, g) in q.group_by.iter().enumerate() {
            let col = db.dim(g.dim).store.column(g.column);
            agg.extract(gi, col, black_box(&inp.dim_positions[gi]), io);
        }
        agg.aggregate(q, &db.fact, black_box(&inp.positions), io);
        agg.into_partial().len()
    };
    let value_ns = time_per_row(rows, runs, || tail(&AggStrategy::Value));
    let mut groups = 0usize;
    let code_ns = time_per_row(rows, runs, || {
        groups = tail(&strat);
        groups
    });
    Some(Cell {
        cell: format!("{}/s{stride}", q.id),
        rows,
        groups,
        value_ns_per_row: value_ns,
        code_ns_per_row: code_ns,
    })
}

/// Synthetic accumulation cells across group-count regimes: NDV 1, the
/// direct multi-column ids, and the `u64`-hash fallback.
fn measure_synthetic(n: u32, runs: usize, out: &mut Vec<Cell>) {
    use cvr_core::agg::CodeDecoder;
    let regimes: &[(&str, &[u64])] = &[
        ("syn/ndv1", &[1]),
        ("syn/direct-7x1000", &[7, 1000]),
        ("syn/direct-25x25x7", &[25, 25, 7]),
        ("syn/hash-250x250x7", &[250, 250, 7]),
    ];
    for (name, domains) in regimes {
        let layout =
            GroupLayout::try_new(domains.iter().map(|&d| (d, CodeDecoder::IntOffset(0))).collect())
                .expect("synthetic layout");
        // Seeded LCG codes + terms; Values pre-materialized for the
        // reference tail (its per-row clone cost is what we measure).
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let rows = n as usize;
        let mut code_cols: Vec<Vec<u32>> =
            domains.iter().map(|_| Vec::with_capacity(rows)).collect();
        let mut terms = Vec::with_capacity(rows);
        for _ in 0..rows {
            for (c, &d) in domains.iter().enumerate() {
                code_cols[c].push((next() % d) as u32);
            }
            terms.push((next() % 2000) as i64 - 1000);
        }
        let value_cols: Vec<Vec<Value>> = code_cols
            .iter()
            .map(|codes| codes.iter().map(|&c| Value::Int(c as i64)).collect())
            .collect();

        let value_ns = time_per_row(rows, runs, || {
            let mut g = Grouper::new();
            for (i, &term) in terms.iter().enumerate() {
                let key: Vec<Value> = value_cols.iter().map(|vc| vc[i].clone()).collect();
                g.add(key, term);
            }
            g.len()
        });
        let mut groups = 0usize;
        // The kernel's tail: ids composed column at a time by stride, then
        // one accumulation loop.
        let code_ns = time_per_row(rows, runs, || {
            let mut ids = vec![0u64; rows];
            for (c, codes) in code_cols.iter().enumerate() {
                let stride = layout.stride(c);
                ids.iter_mut().zip(codes).for_each(|(id, &code)| *id += code as u64 * stride);
            }
            let mut g = CodeGrouper::for_layout(&layout);
            g.add_all(&ids, &terms);
            groups = g.len();
            groups
        });
        out.push(Cell {
            cell: name.to_string(),
            rows,
            groups,
            value_ns_per_row: value_ns,
            code_ns_per_row: code_ns,
        });
    }
}

/// Time every cell, write [`OUT`], and gate.
pub fn run(db: &Db) -> Result<(), String> {
    let args = &db.args;
    let store = db.stores().engine().db(EngineConfig::FULL);
    eprintln!(
        "# agg over sf {} ({} fact rows), best of {} runs",
        args.sf,
        store.fact_rows(),
        args.runs
    );
    let io = IoSession::unmetered();
    let mut cells = Vec::new();
    for q in all_queries() {
        if q.group_by.is_empty() {
            continue;
        }
        let strides: &[usize] = if (q.id.flight == 2 || q.id.flight == 3) && q.id.number == 1 {
            &[2, 8, 64]
        } else {
            &[8]
        };
        for &stride in strides {
            if let Some(cell) = measure_query(store, &q, stride, args.runs, &io) {
                cells.push(cell);
            } else {
                eprintln!("# skipping {}: a group column has no code space at this sf", q.id);
            }
        }
    }
    measure_synthetic(args.n.unwrap_or(1 << 18), args.runs, &mut cells);

    println!("\nAggregation: Value-keyed grouper vs code-level group ids\n");
    println!(
        "{:<22} {:>9} {:>8} {:>13} {:>13} {:>9}",
        "cell", "rows", "groups", "value ns/row", "code ns/row", "speedup"
    );
    let mut json = String::from("{\n  \"bench\": \"agg\",\n");
    let _ = writeln!(json, "  \"sf\": {},", args.sf);
    let _ = writeln!(json, "  \"runs\": {},", args.runs);
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        println!(
            "{:<22} {:>9} {:>8} {:>13.2} {:>13.2} {:>8.2}x",
            c.cell,
            c.rows,
            c.groups,
            c.value_ns_per_row,
            c.code_ns_per_row,
            c.speedup()
        );
        let _ = write!(
            json,
            "    {{\"cell\": \"{}\", \"rows\": {}, \"groups\": {}, \
             \"value_ns_per_row\": {:.4}, \"code_ns_per_row\": {:.4}, \"speedup\": {:.3}}}",
            c.cell,
            c.rows,
            c.groups,
            c.value_ns_per_row,
            c.code_ns_per_row,
            c.speedup()
        );
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    let flight23_best = cells
        .iter()
        .filter(|c| c.cell.starts_with("Q2.") || c.cell.starts_with("Q3."))
        .map(Cell::speedup)
        .fold(f64::NEG_INFINITY, f64::max);
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"flight23_best_speedup\": {flight23_best:.3}");
    json.push_str("}\n");
    std::fs::write(OUT, &json).map_err(|e| format!("writing {OUT}: {e}"))?;
    eprintln!("\n# wrote {OUT}");

    println!("\nbest flight-2/3 speedup: {flight23_best:.2}x (gate: >= {:.1}x)", args.min_speedup);
    if flight23_best.is_finite() && flight23_best >= args.min_speedup {
        Ok(())
    } else {
        Err(format!("code-level aggregation below the {:.1}x gate", args.min_speedup))
    }
}
