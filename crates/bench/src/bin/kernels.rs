//! Scan-kernel benchmark: scalar block iteration vs word-parallel kernels
//! per encoding × selectivity, printed as a table and emitted as
//! `BENCH_kernels.json` — the start of the kernel-layer perf trajectory.
//!
//! ```text
//! cargo run --release -p cvr-bench --bin kernels -- [--n N] [--runs R] [--out PATH]
//! ```
//!
//! Every cell is verified first (scalar and word paths must select the
//! same positions), then timed as best-of-`runs`. "Scalar" unpacks and
//! tests one value at a time — the block-iteration loop the scan layer
//! used before the kernel layer; "word" is the SWAR mask kernel feeding a
//! position vector through the bulk path.

use cvr_core::kernels::{self, scalar, CmpOp};
use cvr_storage::packed::PackedInts;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Deterministic pseudo-random codes in `[0, max]`.
fn codes(n: u32, max: u64) -> Vec<u64> {
    (0..n as u64).map(|i| i.wrapping_mul(2_654_435_761) % (max + 1)).collect()
}

/// Run the packed compare kernel over all of `p` and collect the emitted
/// masks into positions.
fn word_positions(p: &PackedInts, op: CmpOp) -> Vec<u32> {
    let mut out = Vec::new();
    kernels::packed_cmp_masks(p, 0, p.len(), op, |base, m| push_mask(&mut out, base, m));
    out
}

/// Run the plain-slice compare kernel and collect positions.
fn slice_word_positions(values: &[i64], lo: i64, hi: i64) -> Vec<u32> {
    let mut out = Vec::new();
    kernels::slice_cmp_masks(values, 0, lo, hi, |base, m| push_mask(&mut out, base, m));
    out
}

/// Append the set bits of one selection mask as positions.
fn push_mask(out: &mut Vec<u32>, base: u32, mut mask: u64) {
    while mask != 0 {
        out.push(base + mask.trailing_zeros());
        mask &= mask - 1;
    }
}

struct Args {
    n: u32,
    runs: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args { n: 1 << 20, runs: 5, out: "BENCH_kernels.json".to_string() };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            argv.get(*i).unwrap_or_else(|| panic!("missing value for {}", argv[*i - 1])).clone()
        };
        match argv[i].as_str() {
            "--n" => args.n = take(&mut i).parse().expect("--n takes an int"),
            "--runs" => args.runs = take(&mut i).parse().expect("--runs takes an int"),
            "--out" => args.out = take(&mut i),
            "--help" | "-h" => {
                eprintln!("usage: kernels [--n N] [--runs R] [--out PATH]");
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}; try --help"),
        }
        i += 1;
    }
    args
}

/// One measured cell of the (kernel × encoding × selectivity) matrix.
struct Cell {
    kernel: &'static str,
    encoding: String,
    selectivity: f64,
    scalar_ns_per_value: f64,
    word_ns_per_value: f64,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.scalar_ns_per_value / self.word_ns_per_value.max(1e-12)
    }
}

/// Best-of-`runs` wall time of `f`, in ns per value.
fn time_per_value(n: u32, runs: usize, mut f: impl FnMut() -> usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs.max(1) {
        let t = Instant::now();
        let count = f();
        let dt = t.elapsed().as_secs_f64();
        black_box(count);
        best = best.min(dt);
    }
    best * 1e9 / n as f64
}

/// Packed int column cells: the `lo <= v <= hi` join/measure predicates.
fn measure_packed(n: u32, runs: usize, bits: u8, out: &mut Vec<Cell>) {
    let p = PackedInts::pack(bits, codes(n, (1u64 << bits) - 1));
    let max = p.max_code();
    for frac in [0.01f64, 0.2, 0.9] {
        let hi = ((max as f64 * frac) as u64).min(max);
        let op = CmpOp::Le(hi);
        let expect = scalar::packed_cmp_positions(&p, 0, p.len(), op);
        assert_eq!(word_positions(&p, op), expect, "kernel/scalar divergence");
        let selectivity = expect.len() as f64 / n as f64;
        let scalar_ns = time_per_value(n, runs, || {
            scalar::packed_cmp_positions(black_box(&p), 0, p.len(), black_box(op)).len()
        });
        let word_ns =
            time_per_value(n, runs, || word_positions(black_box(&p), black_box(op)).len());
        out.push(Cell {
            kernel: "int_range",
            encoding: format!("packed_w{bits}"),
            selectivity,
            scalar_ns_per_value: scalar_ns,
            word_ns_per_value: word_ns,
        });
    }
}

/// Dictionary cells: hierarchy predicates over packed codes — scalar
/// `matches[]` table lookups vs the contiguous-range SWAR kernel.
fn measure_dict(n: u32, runs: usize, out: &mut Vec<Cell>) {
    let card = 25u64;
    let p = PackedInts::pack(5, codes(n, card - 1));
    for (lo, hi) in [(3u64, 3u64), (5, 14)] {
        let matches: Vec<bool> = (0..card).map(|c| (lo..=hi).contains(&c)).collect();
        let op = CmpOp::Range(lo, hi);
        let expect = scalar::packed_test_positions(&p, 0, p.len(), |c| matches[c as usize]);
        assert_eq!(word_positions(&p, op), expect, "dict kernel/scalar divergence");
        let selectivity = expect.len() as f64 / n as f64;
        let scalar_ns = time_per_value(n, runs, || {
            scalar::packed_test_positions(black_box(&p), 0, p.len(), |c| matches[c as usize]).len()
        });
        let word_ns =
            time_per_value(n, runs, || word_positions(black_box(&p), black_box(op)).len());
        out.push(Cell {
            kernel: "dict_pred",
            encoding: "dict_card25".to_string(),
            selectivity,
            scalar_ns_per_value: scalar_ns,
            word_ns_per_value: word_ns,
        });
    }
}

/// Plain `i64` slice cells: branchless mask construction vs push-per-match.
fn measure_plain(n: u32, runs: usize, out: &mut Vec<Cell>) {
    let values: Vec<i64> = (0..n as i64).map(|i| i.wrapping_mul(2_654_435_761) % 30_000).collect();
    for hi in [300i64, 15_000] {
        let expect = scalar::slice_cmp_positions(&values, 0, 0, hi);
        assert_eq!(slice_word_positions(&values, 0, hi), expect, "slice kernel/scalar divergence");
        let selectivity = expect.len() as f64 / n as f64;
        let scalar_ns = time_per_value(n, runs, || {
            scalar::slice_cmp_positions(black_box(&values), 0, 0, black_box(hi)).len()
        });
        let word_ns = time_per_value(n, runs, || {
            slice_word_positions(black_box(&values), 0, black_box(hi)).len()
        });
        out.push(Cell {
            kernel: "int_range",
            encoding: "plain_i64".to_string(),
            selectivity,
            scalar_ns_per_value: scalar_ns,
            word_ns_per_value: word_ns,
        });
    }
}

fn main() {
    let args = parse_args();
    let mut cells = Vec::new();
    eprintln!("# measuring kernels over n = {} values, best of {} runs", args.n, args.runs);
    measure_packed(args.n, args.runs, 6, &mut cells);
    measure_packed(args.n, args.runs, 17, &mut cells);
    measure_dict(args.n, args.runs, &mut cells);
    measure_plain(args.n, args.runs, &mut cells);

    println!("\nScan kernels: scalar block iteration vs word-parallel ({} values)\n", args.n);
    println!(
        "{:<12} {:<12} {:>12} {:>12} {:>12} {:>9}",
        "kernel", "encoding", "selectivity", "scalar ns/v", "word ns/v", "speedup"
    );
    let mut json = String::from("{\n  \"bench\": \"kernels\",\n");
    let _ = writeln!(json, "  \"n\": {},", args.n);
    let _ = writeln!(json, "  \"runs\": {},", args.runs);
    json.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        println!(
            "{:<12} {:<12} {:>12.4} {:>12.3} {:>12.3} {:>8.2}x",
            c.kernel,
            c.encoding,
            c.selectivity,
            c.scalar_ns_per_value,
            c.word_ns_per_value,
            c.speedup()
        );
        let _ = write!(
            json,
            "    {{\"kernel\": \"{}\", \"encoding\": \"{}\", \"selectivity\": {:.6}, \
             \"scalar_ns_per_value\": {:.4}, \"word_ns_per_value\": {:.4}, \"speedup\": {:.3}}}",
            c.kernel,
            c.encoding,
            c.selectivity,
            c.scalar_ns_per_value,
            c.word_ns_per_value,
            c.speedup()
        );
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&args.out, &json).expect("write BENCH_kernels.json");
    eprintln!("\n# wrote {}", args.out);

    // The perf trajectory this bench exists to defend: word-parallel must
    // decisively beat scalar block iteration on the low-selectivity int
    // predicate and on the dictionary predicate.
    let gate = |kernel: &str| {
        cells
            .iter()
            .filter(|c| c.kernel == kernel && c.encoding != "plain_i64")
            .map(|c| c.speedup())
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let (int_best, dict_best) = (gate("int_range"), gate("dict_pred"));
    println!("\nbest packed int-range speedup: {int_best:.2}x; best dict speedup: {dict_best:.2}x");
    if int_best < 2.0 || dict_best < 2.0 {
        eprintln!("WARNING: word-parallel speedup below the 2x target on this machine");
    }
}
