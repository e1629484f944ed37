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
//!
//! Two further families measure the scan layer itself
//! ([`cvr_core::scan::refine`]) over morsel-sized windows, the way the fact
//! pipeline calls it:
//!
//! * `refine` rows — a range predicate keeping half the values of a column
//!   whose candidates have already been thinned to 1/5/20/50 % (and not at
//!   all: 100 %): the whole-window kernel followed by an intersection (what
//!   a scan-then-intersect pipeline pays) against candidate-driven
//!   refinement, plus the two unit costs the per-word choice inside `refine`
//!   is derived from — the bare window kernel (`kernel_ns_per_value`) and
//!   one candidate tested on its own (`get_ns_per_candidate`, explicit
//!   candidates). Packed widths 6, 10 and 17 are the three SWAR regimes:
//!   narrow lanes (shift-loop verdict gather), 5 and 3 lanes per word
//!   (multiply gather). The plain rows are the byte-aligned layout at each
//!   width; `plain_u16` holds the very values of `packed_w10`, so the two
//!   rows are the layouts ROADMAP item 3a chooses between, side by side.
//! * `membership` rows — a join-key membership scan over an FK column,
//!   packed and plain at each width: open-addressing hash set against the
//!   dense-key flag table, per value over whole windows and per candidate
//!   over explicit candidates.
//!
//! `CpuRates::from_kernel_bench_json` reads the plain `int_range` rows,
//! `get_ns_per_candidate` and `bits_ns_per_value` for the planner's
//! plain-column and candidate rates.
//!
//! The run fails when a word kernel is slower than its scalar reference on
//! the most selective cell of any encoding — the cell where the kernel, not
//! the writing of matched positions, is what is timed ([`SLOWER`]).

use cvr_core::kernels::{scalar, CmpOp, Lane, PackedCmp, RangeTest};
use cvr_core::poslist::PosList;
use cvr_core::scan::{refine, ScanPred};
use cvr_index::bitmap::{KeyBits, RidBitmap};
use cvr_index::hashidx::IntHashSet;
use cvr_storage::column::StoredColumn;
use cvr_storage::encode::{Column, IntColumn};
use cvr_storage::io::IoSession;
use cvr_storage::packed::PackedInts;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// The speedup under which a word kernel counts as slower than its scalar
/// reference. Two loops of equal speed read 0.9–1.1x of each other from run
/// to run on a shared machine (`plain_i64`, where both wait for the same
/// 8 bytes a value, is such a pair); the serial-mask kernel this gate was
/// added against read 0.63–0.74x.
const SLOWER: f64 = 0.85;

/// Deterministic pseudo-random codes in `[0, max]`.
fn codes(n: u32, max: u64) -> Vec<u64> {
    (0..n as u64).map(|i| i.wrapping_mul(2_654_435_761) % (max + 1)).collect()
}

/// Run the packed compare kernel over all of `p` and collect the emitted
/// masks into positions.
fn word_positions(p: &PackedInts, op: CmpOp) -> Vec<u32> {
    let mut out = Vec::new();
    if let Some(cmp) = PackedCmp::new(p, op) {
        cmp.masks(0, p.len(), |base, m| push_mask(&mut out, base, m));
    }
    out
}

/// Run the plain range kernel over a typed slice and collect positions.
fn plain_word_positions<T: Lane>(values: &[T], lo: i64, hi: i64) -> Vec<u32> {
    let mut out = Vec::new();
    if let Some(range) = RangeTest::<T>::clamped(lo, hi) {
        range.masks(values, 0, |base, m| push_mask(&mut out, base, m));
    }
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

/// [`time_per_value`] of two loops whose ratio is reported, alternated run
/// by run so that a slow spell of a shared machine lands on both.
fn time_pair(
    n: u32,
    runs: usize,
    mut scalar: impl FnMut() -> usize,
    mut word: impl FnMut() -> usize,
) -> (f64, f64) {
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..runs.max(1) {
        best.0 = best.0.min(time_per_value(n, 1, &mut scalar));
        best.1 = best.1.min(time_per_value(n, 1, &mut word));
    }
    best
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
        let (scalar_ns, word_ns) = time_pair(
            n,
            runs,
            || scalar::packed_cmp_positions(black_box(&p), 0, p.len(), black_box(op)).len(),
            || word_positions(black_box(&p), black_box(op)).len(),
        );
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
        let (scalar_ns, word_ns) = time_pair(
            n,
            runs,
            || {
                let listed = |c| matches[c as usize];
                scalar::packed_test_positions(black_box(&p), 0, p.len(), listed).len()
            },
            || word_positions(black_box(&p), black_box(op)).len(),
        );
        out.push(Cell {
            kernel: "dict_pred",
            encoding: "dict_card25".to_string(),
            selectivity,
            scalar_ns_per_value: scalar_ns,
            word_ns_per_value: word_ns,
        });
    }
}

/// Plain cells at one width: the byte-verdict range kernel at the values'
/// own type vs widen-compare-push per value, over values spread on
/// `[0, max]`.
fn measure_plain<T: Lane>(n: u32, runs: usize, encoding: &str, max: u64, out: &mut Vec<Cell>) {
    let values: Vec<T> =
        codes(n, max).into_iter().map(|c| T::narrow(c as i64).expect("fits")).collect();
    for frac in [0.01f64, 0.5] {
        let hi = (max as f64 * frac) as i64;
        let in_range = |v: T| (0..=hi).contains(&v.widen());
        let expect = scalar::plain_positions(&values, 0, in_range);
        assert_eq!(plain_word_positions(&values, 0, hi), expect, "plain kernel/scalar divergence");
        let selectivity = expect.len() as f64 / n as f64;
        let (scalar_ns, word_ns) = time_pair(
            n,
            runs,
            || {
                let hi = black_box(hi);
                let in_range = |v: T| (0..=hi).contains(&v.widen());
                scalar::plain_positions(black_box(&values), 0, in_range).len()
            },
            || plain_word_positions(black_box(&values), 0, black_box(hi)).len(),
        );
        out.push(Cell {
            kernel: "int_range",
            encoding: encoding.to_string(),
            selectivity,
            scalar_ns_per_value: scalar_ns,
            word_ns_per_value: word_ns,
        });
    }
}

/// A plain column of `values`, which must come out at `width` bytes.
fn plain_col(values: Vec<i64>, width: u8) -> StoredColumn {
    let col = IntColumn::plain(values);
    assert!(matches!(&col, IntColumn::Plain(p) if p.width() == width), "not at width {width}");
    StoredColumn::new("plain", Column::Int(col))
}

/// Spread values over `[0, max]`, with one value that pins a plain column
/// of them to `width` bytes (width 8 needs a negative one).
fn values_at_width(n: u32, max: u64, width: u8) -> Vec<i64> {
    let mut values: Vec<i64> = codes(n, max).into_iter().map(|c| c as i64).collect();
    values[0] = match width {
        1 => u8::MAX as i64,
        2 => u16::MAX as i64,
        4 => u32::MAX as i64,
        _ => -1,
    };
    values
}

/// Morsel-sized windows tiling `[0, n)`, like the fact pipeline's grid.
fn windows(n: u32) -> Vec<std::ops::Range<u32>> {
    let morsel = cvr_core::morsel::DEFAULT_MORSEL_ROWS;
    (0..n.div_ceil(morsel)).map(|i| i * morsel..((i + 1) * morsel).min(n)).collect()
}

/// One candidate-refinement cell: a range predicate keeping ~half of a
/// column, over candidates at `candidate_density`.
struct RefineCell {
    encoding: String,
    candidate_density: f64,
    /// The whole-window kernel alone (every position a candidate).
    kernel_ns_per_value: f64,
    /// Whole-window kernel, then intersect with the candidates.
    window_ns_per_value: f64,
    /// Candidate-driven refinement of the same bitmap candidates.
    refine_ns_per_value: f64,
    /// One candidate tested on its own (explicit candidates), per candidate.
    get_ns_per_candidate: f64,
}

/// A packed column of values spread over `bits` bits.
fn packed_col(n: u32, bits: u8) -> StoredColumn {
    let values: Vec<i64> = codes(n, (1u64 << bits) - 1).into_iter().map(|c| c as i64).collect();
    StoredColumn::new("c", Column::Int(IntColumn::packed(&values).expect("packs")))
}

/// Refinement cells of `col` under `0 <= v <= hi`, which must keep about
/// half of its values.
fn measure_refine(
    col: &StoredColumn,
    encoding: &str,
    hi: i64,
    runs: usize,
    out: &mut Vec<RefineCell>,
) {
    let n = col.column.len() as u32;
    let pred = ScanPred::Range { lo: 0, hi };
    let io = IoSession::unmetered();
    let windows = windows(n);
    let kernel_ns_per_value = time_per_value(n, runs, || {
        let scanned = windows.iter().map(|w| {
            refine(col, w.clone(), &PosList::all(w.clone()), &pred, true, &io).count() as usize
        });
        scanned.sum()
    });
    for percent in [1u64, 5, 20, 50, 100] {
        // Pseudo-random candidates at the stated density, per window, in
        // both sparse representations.
        let keep = |p: u32| {
            (p as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32 < percent * (1 << 32) / 100
        };
        let mut total = 0usize;
        let (bitmaps, explicit): (Vec<PosList>, Vec<PosList>) = windows
            .iter()
            .map(|w| {
                let positions: Vec<u32> = w.clone().filter(|&p| keep(p)).collect();
                total += positions.len();
                let rids = positions.iter().map(|p| p - w.start);
                (
                    PosList::Bitmap {
                        base: w.start,
                        bits: RidBitmap::from_rids(w.len() as u32, rids),
                    },
                    PosList::Explicit { positions, universe: w.len() as u32 },
                )
            })
            .unzip();
        let through = |candidates: &[PosList]| -> usize {
            let refined = windows.iter().zip(candidates);
            refined.map(|(w, c)| refine(col, w.clone(), c, &pred, true, &io).count() as usize).sum()
        };
        let scan_then_intersect = || -> usize {
            let scanned = windows.iter().zip(&bitmaps).map(|(w, c)| {
                let full = refine(col, w.clone(), &PosList::all(w.clone()), &pred, true, &io);
                c.intersect(&full).count() as usize
            });
            scanned.sum()
        };
        let survivors = scan_then_intersect();
        assert_eq!(through(&bitmaps), survivors, "refine/intersect divergence");
        assert_eq!(through(&explicit), survivors, "refine/intersect divergence");
        out.push(RefineCell {
            encoding: encoding.to_string(),
            candidate_density: total as f64 / n as f64,
            kernel_ns_per_value,
            window_ns_per_value: time_per_value(n, runs, scan_then_intersect),
            refine_ns_per_value: time_per_value(n, runs, || through(black_box(&bitmaps))),
            get_ns_per_candidate: time_per_value(total as u32, runs, || {
                through(black_box(&explicit))
            }),
        });
    }
}

/// One membership cell: every value of an FK column probed against a key set
/// holding `key_fraction` of a dense key domain.
struct MembershipCell {
    encoding: String,
    key_fraction: f64,
    hash_ns_per_value: f64,
    bits_ns_per_value: f64,
    /// Over explicit candidates (every other position), per candidate.
    hash_ns_per_candidate: f64,
    bits_ns_per_candidate: f64,
}

/// Membership cells of `col`, whose values are foreign keys into the dense
/// domain `0..domain`.
fn measure_membership(
    col: &StoredColumn,
    encoding: &str,
    domain: u64,
    runs: usize,
    out: &mut Vec<MembershipCell>,
) {
    let n = col.column.len() as u32;
    let io = IoSession::unmetered();
    let windows = windows(n);
    let halves: Vec<PosList> = windows
        .iter()
        .map(|w| PosList::Explicit {
            positions: w.clone().step_by(2).collect(),
            universe: w.len() as u32,
        })
        .collect();
    let everything: Vec<PosList> = windows.iter().map(|w| PosList::all(w.clone())).collect();
    for every in [100i64, 5] {
        let keys: Vec<i64> = (0..domain as i64).filter(|k| k % every == 0).collect();
        let set = IntHashSet::from_keys(keys.iter().copied());
        let dense = KeyBits::from_keys(domain as u32, keys.iter().copied());
        let in_set = |v: i64| set.contains(v);
        let (hash, bits_pred) = (ScanPred::Test(&in_set), ScanPred::Keys(&dense));
        let probe = |candidates: &[PosList], pred: &ScanPred<'_>| -> usize {
            let refined = windows.iter().zip(candidates);
            refined.map(|(w, c)| refine(col, w.clone(), c, pred, true, &io).count() as usize).sum()
        };
        for candidates in [&everything, &halves] {
            assert_eq!(
                probe(candidates, &bits_pred),
                probe(candidates, &hash),
                "bits/hash divergence"
            );
        }
        out.push(MembershipCell {
            encoding: encoding.to_string(),
            key_fraction: keys.len() as f64 / domain as f64,
            hash_ns_per_value: time_per_value(n, runs, || probe(black_box(&everything), &hash)),
            bits_ns_per_value: time_per_value(n, runs, || {
                probe(black_box(&everything), &bits_pred)
            }),
            hash_ns_per_candidate: time_per_value(n / 2, runs, || probe(black_box(&halves), &hash)),
            bits_ns_per_candidate: time_per_value(n / 2, runs, || {
                probe(black_box(&halves), &bits_pred)
            }),
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
    measure_plain::<u8>(args.n, args.runs, "plain_u8", 250, &mut cells);
    measure_plain::<u16>(args.n, args.runs, "plain_u16", 30_000, &mut cells);
    measure_plain::<u32>(args.n, args.runs, "plain_u32", 3_000_000, &mut cells);
    measure_plain::<i64>(args.n, args.runs, "plain_i64", 30_000, &mut cells);
    let (mut refines, mut memberships) = (Vec::new(), Vec::new());
    for bits in [6u8, 10, 17] {
        let hi = (1i64 << bits) / 2 - 1;
        let col = packed_col(args.n, bits);
        measure_refine(&col, &format!("packed_w{bits}"), hi, args.runs, &mut refines);
    }
    // The values of `packed_w10` (1023 pins the width), byte-aligned; then
    // the other widths over the same spread.
    let plain_widths = [("plain_u16", 2u8), ("plain_u8", 1), ("plain_u32", 4), ("plain_i64", 8)];
    for (encoding, width) in plain_widths {
        let max = if width == 1 { 255 } else { 1023 };
        let col = plain_col(values_at_width(args.n, max, width), width);
        measure_refine(&col, encoding, max as i64 / 2, args.runs, &mut refines);
    }
    // A CUSTOMER-sized dense key domain (sf 0.2: 6 000 keys, 13 bits; 200 at
    // one byte), packed and byte-aligned.
    let fks: Vec<i64> = codes(args.n, 5_999).into_iter().map(|c| c as i64).collect();
    let packed_fk = StoredColumn::new("fk", Column::Int(IntColumn::packed(&fks).expect("packs")));
    measure_membership(&packed_fk, "packed_w13", 6_000, args.runs, &mut memberships);
    for (encoding, width) in plain_widths {
        let domain = if width == 1 { 200 } else { 6_000 };
        let col = plain_col(values_at_width(args.n, domain - 1, width), width);
        measure_membership(&col, encoding, domain, args.runs, &mut memberships);
    }

    println!("\nScan kernels: scalar block iteration vs word-parallel ({} values)\n", args.n);
    println!(
        "{:<12} {:<12} {:>12} {:>12} {:>12} {:>9}",
        "kernel", "encoding", "selectivity", "scalar ns/v", "word ns/v", "speedup"
    );
    let mut json = String::from("{\n  \"bench\": \"kernels\",\n");
    let _ = writeln!(json, "  \"n\": {},", args.n);
    let _ = writeln!(json, "  \"runs\": {},", args.runs);
    json.push_str("  \"results\": [\n");
    for c in &cells {
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
        json.push_str(",\n");
    }

    println!(
        "\nCandidate refinement over {}-row windows (range predicate keeping half)\n",
        windows(args.n)[0].len()
    );
    println!(
        "{:<12} {:>10} {:>12} {:>16} {:>14} {:>16}",
        "encoding",
        "candidates",
        "kernel ns/v",
        "scan+intersect",
        "refine ns/v",
        "get ns/candidate"
    );
    for c in &refines {
        println!(
            "{:<12} {:>10.4} {:>12.3} {:>16.3} {:>14.3} {:>16.3}",
            c.encoding,
            c.candidate_density,
            c.kernel_ns_per_value,
            c.window_ns_per_value,
            c.refine_ns_per_value,
            c.get_ns_per_candidate
        );
        let _ = writeln!(
            json,
            "    {{\"kernel\": \"refine\", \"encoding\": \"{}\", \"candidate_density\": {:.6}, \
             \"kernel_ns_per_value\": {:.4}, \"window_ns_per_value\": {:.4}, \
             \"refine_ns_per_value\": {:.4}, \"get_ns_per_candidate\": {:.4}}},",
            c.encoding,
            c.candidate_density,
            c.kernel_ns_per_value,
            c.window_ns_per_value,
            c.refine_ns_per_value,
            c.get_ns_per_candidate
        );
    }

    println!("\nJoin-key membership scan: hash set vs dense-key flag table\n");
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>8} {:>16} {:>16}",
        "encoding",
        "keys",
        "hash ns/v",
        "bits ns/v",
        "speedup",
        "hash ns/candidate",
        "bits ns/candidate"
    );
    for (i, c) in memberships.iter().enumerate() {
        println!(
            "{:<12} {:>8.4} {:>10.3} {:>10.3} {:>7.2}x {:>16.3} {:>16.3}",
            c.encoding,
            c.key_fraction,
            c.hash_ns_per_value,
            c.bits_ns_per_value,
            c.hash_ns_per_value / c.bits_ns_per_value.max(1e-12),
            c.hash_ns_per_candidate,
            c.bits_ns_per_candidate
        );
        let _ = write!(
            json,
            "    {{\"kernel\": \"membership\", \"encoding\": \"{}\", \"key_fraction\": {:.6}, \
             \"hash_ns_per_value\": {:.4}, \"bits_ns_per_value\": {:.4}, \
             \"hash_ns_per_candidate\": {:.4}, \"bits_ns_per_candidate\": {:.4}}}",
            c.encoding,
            c.key_fraction,
            c.hash_ns_per_value,
            c.bits_ns_per_value,
            c.hash_ns_per_candidate,
            c.bits_ns_per_candidate
        );
        json.push_str(if i + 1 < memberships.len() { ",\n" } else { "\n" });
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
            .filter(|c| c.kernel == kernel)
            .map(|c| c.speedup())
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let (int_best, dict_best) = (gate("int_range"), gate("dict_pred"));
    println!("\nbest int-range speedup: {int_best:.2}x; best dict speedup: {dict_best:.2}x");
    if int_best < 2.0 || dict_best < 2.0 {
        eprintln!("WARNING: word-parallel speedup below the 2x target on this machine");
    }
    // No encoding may keep a word kernel its scalar reference beats: judged
    // on each encoding's most selective cell, where few positions are written
    // and the kernel is what is timed.
    let mut slower = Vec::new();
    for c in &cells {
        let most_selective = cells
            .iter()
            .filter(|o| o.kernel == c.kernel && o.encoding == c.encoding)
            .all(|o| o.selectivity >= c.selectivity);
        if most_selective && c.speedup() < SLOWER {
            slower.push(format!("{} {} at {:.2}x", c.kernel, c.encoding, c.speedup()));
        }
    }
    if !slower.is_empty() {
        eprintln!("FAIL: word kernel slower than its scalar reference: {}", slower.join(", "));
        std::process::exit(1);
    }
}
