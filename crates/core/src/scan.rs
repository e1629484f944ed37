//! Predicate application over encoded columns → position lists.
//!
//! This is where three of the paper's four optimizations physically live:
//!
//! * **Block iteration vs tuple iteration** (Section 5.3): every scan has
//!   two code paths — a block path (word-parallel kernels over native
//!   slices and packed words, see [`crate::kernels`]) and `get_next` (one
//!   opaque virtual call per value examined). The paper notes it
//!   "only noticed a significant difference in the performance of selection
//!   operations" when switching interfaces, which is why the dual path
//!   lives here, in selection. The tuple path is deliberately left
//!   value-at-a-time — it *is* the paper's contrast.
//! * **Direct operation on compressed data** (Section 5.1): RLE columns
//!   evaluate each predicate once per *run* and emit position ranges;
//!   frame-of-reference packed columns are compared 64 bits of packed image
//!   at a time without unpacking; dictionary columns translate a string
//!   predicate into a code predicate evaluated once against the (tiny)
//!   sorted dictionary, then scan the packed codes as integers — with
//!   contiguous matching code ranges (the common hierarchy-predicate case)
//!   collapsing to a single SWAR range kernel.
//! * **Position-list representations** (Section 5.2): results accumulate
//!   into ranges, explicit arrays, or bitmaps depending on selectivity and
//!   run structure — and kernel results land as whole 64-bit mask words
//!   ([`PosAccumulator::push_mask`]), never through a per-bit path.
//!
//! Every predicate is applied by one function, [`refine`], over a **window**
//! of its column — the whole column for a dimension predicate, one morsel
//! for the fact pipeline — and a list of **candidates**: the positions of
//! that window earlier predicates left alive. Late materialization
//! (Section 5.2) exists so that work shrinks with the surviving positions,
//! so the kernels are driven by the candidates, not by the window; a plain
//! window scan is the case where every position is still a candidate. Every
//! (encoding × interface × candidate representation) combination emits into
//! a [`PosAccumulator`] sized by the window.

use crate::kernels::{self, CmpOp, PackedCmp};
use crate::poslist::{PosList, EXPLICIT_LIMIT_DIVISOR};
use cvr_data::queries::Pred;
use cvr_data::value::Value;
use cvr_index::bitmap::{KeyBits, RidBitmap};
use cvr_storage::column::StoredColumn;
use cvr_storage::encode::{Column, IntColumn, PlainValue, StrColumn};
use cvr_storage::io::IoSession;
use cvr_storage::packed::PackedInts;
use cvr_storage::with_plain_values;
use std::ops::Range;

/// Accumulates ascending positions of one window, upgrading from an
/// explicit list to a bitmap when the result grows dense. Accepts single
/// positions, whole ranges, and 64-value selection masks; the bulk paths
/// touch `O(words)` state, not `O(positions)`. Pushes are absolute
/// positions; the bitmap covers the window only.
pub struct PosAccumulator {
    base: u32,
    universe: u32,
    limit: usize,
    explicit: Vec<u32>,
    bitmap: Option<RidBitmap>,
    /// All pushes so far form one contiguous run starting at `run_start`.
    contiguous: bool,
    next_expected: Option<u32>,
    run_start: u32,
}

impl PosAccumulator {
    /// Accumulator over the positions of `window`.
    pub fn new(window: Range<u32>) -> PosAccumulator {
        let universe = window.len() as u32;
        PosAccumulator {
            base: window.start,
            universe,
            limit: (universe / EXPLICIT_LIMIT_DIVISOR).max(64) as usize,
            explicit: Vec::new(),
            bitmap: None,
            contiguous: true,
            next_expected: None,
            run_start: 0,
        }
    }

    fn upgrade_to_bitmap(&mut self) {
        let mut bm = RidBitmap::new(self.universe);
        for &p in &self.explicit {
            bm.set(p - self.base);
        }
        self.explicit.clear();
        self.bitmap = Some(bm);
    }

    /// Append one position (must be ascending).
    #[inline]
    pub fn push(&mut self, pos: u32) {
        match self.next_expected {
            None => self.run_start = pos,
            Some(e) if e != pos => self.contiguous = false,
            _ => {}
        }
        self.next_expected = Some(pos + 1);
        if let Some(bm) = &mut self.bitmap {
            bm.set(pos - self.base);
            return;
        }
        self.explicit.push(pos);
        if self.explicit.len() > self.limit {
            self.upgrade_to_bitmap();
        }
    }

    /// Append the contiguous positions `[start, end)` in `O(words)`: once
    /// the accumulator has upgraded to a bitmap, whole 64-bit words are
    /// filled at a time (the RLE run-scan fast path).
    pub fn push_range(&mut self, start: u32, end: u32) {
        if start >= end {
            return;
        }
        match self.next_expected {
            None => self.run_start = start,
            Some(e) if e != start => self.contiguous = false,
            _ => {}
        }
        self.next_expected = Some(end);
        let count = (end - start) as usize;
        if self.bitmap.is_none() && self.explicit.len() + count > self.limit {
            self.upgrade_to_bitmap();
        }
        match &mut self.bitmap {
            Some(bm) => bm.set_range(start - self.base, end - self.base),
            None => self.explicit.extend(start..end),
        }
    }

    /// Append a 64-value selection mask: bit `j` selects position
    /// `base + j`. Masks must arrive in ascending position order (like the
    /// kernels emit them) and may be all-zero; dense results are ORed into
    /// the bitmap word-wise.
    pub fn push_mask(&mut self, base: u32, mask: u64) {
        if mask == 0 {
            return;
        }
        let first = base + mask.trailing_zeros();
        let last = base + 63 - mask.leading_zeros();
        match self.next_expected {
            None => self.run_start = first,
            Some(e) if e != first => self.contiguous = false,
            _ => {}
        }
        // The mask's own bits must also form one unbroken run.
        let norm = mask >> mask.trailing_zeros();
        if norm & norm.wrapping_add(1) != 0 {
            self.contiguous = false;
        }
        self.next_expected = Some(last + 1);
        let count = mask.count_ones() as usize;
        if self.bitmap.is_none() && self.explicit.len() + count > self.limit {
            self.upgrade_to_bitmap();
        }
        match &mut self.bitmap {
            Some(bm) => bm.or_mask_at(base - self.base, mask),
            None => {
                let mut m = mask;
                while m != 0 {
                    self.explicit.push(base + m.trailing_zeros());
                    m &= m - 1;
                }
            }
        }
    }

    /// Append the positions of `candidates` inside `[start, end)`, each
    /// representation through its bulk path: a clamped range, masked bitmap
    /// words, a slice of the explicit list.
    fn push_within(&mut self, candidates: &PosList, start: u32, end: u32) {
        match candidates {
            PosList::Range { start: s, end: e, .. } => self.push_range(start.max(*s), end.min(*e)),
            PosList::Bitmap { base, bits } => {
                let lo = start.max(*base) - base;
                let hi = end.min(base + bits.len()).saturating_sub(*base);
                if lo >= hi {
                    return;
                }
                let (first, last) = ((lo / 64) as usize, ((hi - 1) / 64) as usize);
                for (i, &word) in bits.words()[first..=last].iter().enumerate() {
                    let mut mask = word;
                    if i == 0 {
                        mask &= u64::MAX << (lo % 64);
                    }
                    if first + i == last {
                        mask &= u64::MAX >> (63 - (hi - 1) % 64);
                    }
                    self.push_mask(base + (first + i) as u32 * 64, mask);
                }
            }
            PosList::Explicit { positions, .. } => {
                let lo = positions.partition_point(|&p| p < start);
                let hi = positions.partition_point(|&p| p < end);
                for &p in &positions[lo..hi] {
                    self.push(p);
                }
            }
        }
    }

    /// Finish into the cheapest faithful representation.
    pub fn finish(self) -> PosList {
        if self.contiguous {
            if let Some(e) = self.next_expected {
                return PosList::Range { start: self.run_start, end: e, universe: self.universe };
            }
            return PosList::empty(self.universe);
        }
        match self.bitmap {
            Some(bits) => PosList::Bitmap { base: self.base, bits },
            None => PosList::Explicit { positions: self.explicit, universe: self.universe },
        }
    }
}

/// A predicate as the scan layer sees it.
pub enum ScanPred<'a> {
    /// `lo <= v <= hi` over an integer column, inclusive; `lo > hi` matches
    /// nothing. SWAR-eligible — equality, comparisons, between, and
    /// between-rewritten join predicates all land here.
    Range {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// Membership of an integer (foreign-key) column's values in a dense key
    /// set: one bit test per value.
    Keys(&'a KeyBits),
    /// Arbitrary per-value test over an integer column (hash-set membership,
    /// non-contiguous IN-lists).
    Test(&'a (dyn Fn(i64) -> bool + 'a)),
    /// A logical predicate over a column of either type. Integer predicates
    /// compile to [`ScanPred::Range`] when [`ScanPred::range_of`] finds an
    /// interval; string predicates are evaluated once per dictionary entry
    /// and scanned as code predicates.
    Logical(&'a Pred),
}

impl ScanPred<'_> {
    /// Evaluate against one integer value (the RLE-run path).
    #[inline]
    fn matches(&self, v: i64) -> bool {
        match self {
            ScanPred::Range { lo, hi } => v >= *lo && v <= *hi,
            ScanPred::Keys(keys) => keys.contains(v),
            ScanPred::Test(f) => f(v),
            ScanPred::Logical(pred) => pred.matches_int(v),
        }
    }

    /// The inclusive interval equivalent to `pred` over integers, when one
    /// exists: `Eq`/`Between`/`Lt` always, `InSet` when its members are
    /// contiguous. `None` means the predicate needs the opaque-test path.
    pub fn range_of(pred: &Pred) -> Option<(i64, i64)> {
        let int = |v: &Value| match v {
            Value::Int(i) => Some(*i),
            Value::Str(_) => None,
        };
        match pred {
            Pred::Eq(v) => int(v).map(|i| (i, i)),
            Pred::Between(lo, hi) => Some((int(lo)?, int(hi)?)),
            Pred::Lt(v) => {
                let x = int(v)?;
                // `v < i64::MIN` is empty; encode as an empty interval.
                Some(if x == i64::MIN { (1, 0) } else { (i64::MIN, x - 1) })
            }
            Pred::InSet(vs) => {
                let mut members: Vec<i64> = Vec::with_capacity(vs.len());
                for v in vs {
                    members.push(int(v)?);
                }
                members.sort_unstable();
                members.dedup();
                let (&lo, &hi) = (members.first()?, members.last()?);
                // Span in i128: `hi - lo` overflows i64 for wide-spread sets.
                let span = hi as i128 - lo as i128 + 1;
                (span == members.len() as i128).then_some((lo, hi))
            }
        }
    }
}

/// Map a value-space interval to code space for a packed column with frame
/// of reference `reference`; `None` when nothing can match.
fn code_bounds(reference: i64, max_code: u64, lo: i64, hi: i64) -> Option<(u64, u64)> {
    let lo = (lo as i128 - reference as i128).max(0);
    let hi = hi as i128 - reference as i128;
    if lo > hi || lo > max_code as i128 || hi < 0 {
        return None;
    }
    Some((lo as u64, (hi as u128).min(max_code as u128) as u64))
}

/// Rows walked between cancellation polls when a
/// [scan watch](crate::ctx::watch_scans) is active. A multiple of 64 so
/// chunk boundaries stay mask-word friendly; small enough that even a
/// tuple-at-a-time scan of one chunk completes in well under a millisecond.
pub const SCAN_POLL_ROWS: u32 = 1 << 16;

/// Walk `window` in one piece — or, when the executing thread has adopted a
/// scan watch and the window is oversized, in [`SCAN_POLL_ROWS`] pieces with
/// a cancellation poll before each. Pieces tile the window (exactly the
/// morsel decomposition already tested), so chunking only bounds abort
/// latency, never changes results.
fn for_each_chunk(window: &Range<u32>, mut f: impl FnMut(u32, u32)) {
    if window.len() as u32 <= SCAN_POLL_ROWS || !crate::ctx::scan_watch_active() {
        return f(window.start, window.end);
    }
    let mut s = window.start;
    while s < window.end {
        crate::ctx::poll_scan_watch();
        let e = s.saturating_add(SCAN_POLL_ROWS).min(window.end);
        f(s, e);
        s = e;
    }
}

/// Measured unit costs behind the per-word choice between a word kernel and
/// per-candidate tests, in tenths of a nanosecond. From the `refine` rows of
/// `BENCH_kernels.json` (`kernels` binary, 16 Ki-row windows, a range
/// predicate keeping half the values — no all-match or all-miss words for the
/// kernel to shortcut):
///
/// * one candidate fetched with `PackedInts::get` and tested costs 3.0–4.1 ns
///   (`get_ns_per_candidate` at 20–50 % candidates; sparser candidates add
///   cache misses, which only favours skipping);
/// * the SWAR kernel costs 0.74 ns per value at 5 lanes per word and 1.29 at
///   3 (`kernel_ns_per_value`, widths 10 and 17): one packed word through
///   compare, multiply-gather and mask banking is ~3.8 ns whatever its lane
///   count;
/// * at lanes narrower than 8 bits the verdict bits are gathered by a shift
///   loop instead of a multiply, and the kernel costs 1.31 ns per value
///   however many lanes share the word (width 6).
const CANDIDATE_COST: u32 = 35;
const SWAR_WORD_COST: u32 = 40;
const NARROW_LANE_COST: u32 = 13;

/// Candidates in one 64-position word from which the SWAR kernel over
/// `packed` beats testing them one by one: the word spans `64 / lanes`
/// packed words. 14 of 64 at 5 lanes per word, 24 at 3, 37 at 2; 24 for
/// every narrow-lane width.
fn swar_kernel_from(packed: &PackedInts) -> u32 {
    let kernel = if packed.lane_bits() >= 8 {
        64 / packed.lanes_per_word() as u32 * SWAR_WORD_COST
    } else {
        64 * NARROW_LANE_COST
    };
    kernel.div_ceil(CANDIDATE_COST)
}

/// Candidates in one 64-position word from which a *per-value* word kernel
/// over packed lanes (unpack, then an opaque test) beats testing the
/// candidates one by one. From the `membership` rows (`packed_w13`): the
/// key-flag kernel pays 2.0–2.5 ns for each of the 64 values against
/// 2.8–3.7 ns per candidate — break-even at 40–45 candidates; a hash set
/// 3.9–5.5 ns against 4.7–5.3 ns — 48 or more. 40 is the flag table's, and
/// takes the kernel a little early for hash sets, never late.
const VALUE_KERNEL_FROM: u32 = 40;

/// Candidates in one 64-position word from which the range kernel over a
/// plain column of `width` bytes beats testing them one by one. A candidate
/// is one slice index and a compare, 2.1–2.5 ns with its share of the word's
/// bookkeeping whatever the width (`get_ns_per_candidate` of the `plain_*`
/// `refine` rows at 20–50 % candidates); the kernel runs at the speed the
/// values stream in — 0.28, 0.32, 0.50 and 0.66 ns a value at 1, 2, 4 and 8
/// bytes (`kernel_ns_per_value`; 18 to 42 ns a word). The ratios say 8, 9,
/// 14 and 19; sweeping bitmap candidates from 2 % to 100 % under
/// kernel-always and kernel-never puts the crossovers a little lower at the
/// narrow widths (9 % of the positions at one and two bytes, 20 % at four),
/// where the per-candidate path's fixed cost per word weighs most.
fn plain_range_from(width: u8) -> u32 {
    match width {
        1 | 2 => 6,
        4 => 13,
        _ => 20,
    }
}

/// The same under a per-value test (key-flag look-up, opaque closure): the
/// kernel is a dependent load per value, 0.62–0.85 ns at every width
/// (`bits_ns_per_value` of the `plain_*` `membership` rows; 47 ns a word)
/// against 1.5–1.9 ns per candidate, and the sweep crosses at 40 % of the
/// positions. The flag table's number: a costlier test moves both sides
/// alike.
const PLAIN_TEST_FROM: u32 = 26;

/// Never take the word kernel: more candidates than a word holds.
const NO_KERNEL: u32 = 65;

/// Apply one (column, predicate) pair to the candidates of `window`,
/// emitting the survivors into `sink`. `masks(s, e, emit)` is the pair's
/// word kernel over positions `[s, e)` (bases ascend from `s` in steps of
/// 64), `test(p)` its verdict on the single position `p`, and `kernel_from`
/// the number of candidates in a 64-position word from which the kernel is
/// the cheaper of the two:
///
/// * `Range` candidates narrow the kernel's window;
/// * `Bitmap` candidates skip empty words, test the candidates of sparse
///   words one by one, and run the kernel over stretches of dense words,
///   ANDing its masks with the candidate words;
/// * `Explicit` candidates are tested one by one.
///
/// Tuple-at-a-time mode (`!block`) never takes a kernel and pays one opaque
/// virtual call per value it examines (`black_box` keeps the call from being
/// devirtualized, so its cost is real, like C-Store's `getNext` interface).
fn apply<M, T>(
    window: &Range<u32>,
    candidates: &PosList,
    block: bool,
    kernel_from: u32,
    masks: M,
    test: T,
    sink: &mut PosAccumulator,
) where
    M: Fn(u32, u32, &mut dyn FnMut(u32, u64)),
    T: Fn(u32) -> bool,
{
    if block {
        return drive(window, candidates, kernel_from, masks, test, sink);
    }
    let get_next: &dyn Fn(u32) -> bool = &test;
    let get_next = std::hint::black_box(get_next);
    drive(window, candidates, NO_KERNEL, masks, get_next, sink)
}

fn drive<M, T>(
    window: &Range<u32>,
    candidates: &PosList,
    kernel_from: u32,
    masks: M,
    test: T,
    sink: &mut PosAccumulator,
) where
    M: Fn(u32, u32, &mut dyn FnMut(u32, u64)),
    T: Fn(u32) -> bool,
{
    for_each_chunk(window, |s, e| match candidates {
        PosList::Range { start, end, .. } => {
            let (s, e) = (s.max(*start), e.min(*end));
            if s >= e {
                // No candidate in this piece.
            } else if kernel_from <= 64 {
                masks(s, e, &mut |b, m| sink.push_mask(b, m));
            } else {
                for p in s..e {
                    if test(p) {
                        sink.push(p);
                    }
                }
            }
        }
        PosList::Bitmap { base, bits } => {
            // Pieces start a whole number of mask words into the window.
            let words = bits.words();
            let (mut i, hi) = (((s - base) / 64) as usize, (e - base).div_ceil(64) as usize);
            while i < hi {
                let word = words[i];
                if word == 0 {
                    i += 1;
                } else if word.count_ones() < kernel_from {
                    let at = base + i as u32 * 64;
                    let (mut rest, mut kept) = (word, 0u64);
                    while rest != 0 {
                        let j = rest.trailing_zeros();
                        kept |= (test(at + j) as u64) << j;
                        rest &= rest - 1;
                    }
                    sink.push_mask(at, kept);
                    i += 1;
                } else {
                    let from = i;
                    while i < hi && words[i].count_ones() >= kernel_from {
                        i += 1;
                    }
                    masks(base + from as u32 * 64, (base + i as u32 * 64).min(e), &mut |b, m| {
                        sink.push_mask(b, m & words[((b - base) / 64) as usize])
                    });
                }
            }
        }
        PosList::Explicit { positions, .. } => {
            let lo = positions.partition_point(|&p| p < s);
            let hi = positions.partition_point(|&p| p < e);
            for &p in &positions[lo..hi] {
                if test(p) {
                    sink.push(p);
                }
            }
        }
    });
}

/// The integer arms of [`refine`]: every encoding under every predicate.
fn refine_int(
    col: &IntColumn,
    window: &Range<u32>,
    candidates: &PosList,
    pred: &ScanPred<'_>,
    block: bool,
    sink: &mut PosAccumulator,
) {
    match (col, pred) {
        (_, ScanPred::Logical(p)) => {
            let by_value = |v: i64| p.matches_int(v);
            let compiled = match ScanPred::range_of(p) {
                Some((lo, hi)) => ScanPred::Range { lo, hi },
                None => ScanPred::Test(&by_value),
            };
            refine_int(col, window, candidates, &compiled, block, sink)
        }
        (IntColumn::Rle { runs, .. }, _) => {
            // Run kernel: walk the runs under the candidates, one predicate
            // test per run, the candidates of a matching run pushed in
            // O(words) — direct operation on compressed data regardless of
            // the iteration interface (there is no per-value interface to
            // strip without decompressing, which is what the `c`
            // configurations do by storing plain).
            for_each_chunk(window, |s, e| {
                let mut idx = if s == 0 { 0 } else { col.run_containing(s) };
                while idx < runs.len() && runs[idx].start < e {
                    let r = &runs[idx];
                    if pred.matches(r.value) {
                        sink.push_within(candidates, r.start.max(s), (r.start + r.len).min(e));
                    }
                    idx += 1;
                }
            });
        }
        (IntColumn::Plain(plain), ScanPred::Range { lo, hi }) => {
            // The byte-aligned array at its own width: the bounds narrow to
            // the values, not the values to the bounds.
            with_plain_values!(plain, |values| {
                let Some(range) = kernels::RangeTest::clamped(*lo, *hi) else {
                    return;
                };
                apply(
                    window,
                    candidates,
                    block,
                    plain_range_from(plain.width()),
                    |s, e, emit| range.masks(&values[s as usize..e as usize], s, emit),
                    |p| range.matches(values[p as usize]),
                    sink,
                )
            });
        }
        (IntColumn::Packed { reference, packed }, ScanPred::Range { lo, hi }) => {
            // SWAR compare on the packed image, 64 bits at a time, without
            // unpacking a single value.
            let Some((lo, hi)) = code_bounds(*reference, packed.max_code(), *lo, *hi) else {
                return;
            };
            let Some(cmp) = PackedCmp::new(packed, CmpOp::Range(lo, hi)) else {
                return;
            };
            apply(
                window,
                candidates,
                block,
                swar_kernel_from(packed),
                |s, e, emit| cmp.masks(s, e, emit),
                |p| (lo..=hi).contains(&packed.get(p)),
                sink,
            );
        }
        (_, ScanPred::Keys(keys)) => {
            refine_int_test(col, window, candidates, |v| keys.contains(v), block, sink)
        }
        (_, ScanPred::Test(f)) => refine_int_test(col, window, candidates, f, block, sink),
    }
}

/// Plain and packed integers under a per-value test.
fn refine_int_test(
    col: &IntColumn,
    window: &Range<u32>,
    candidates: &PosList,
    test: impl Fn(i64) -> bool,
    block: bool,
    sink: &mut PosAccumulator,
) {
    match col {
        IntColumn::Plain(plain) => with_plain_values!(plain, |values| apply(
            window,
            candidates,
            block,
            PLAIN_TEST_FROM,
            |s, e, emit| {
                let values = &values[s as usize..e as usize];
                kernels::plain_masks(values, s, |v| test(v.widen()), emit)
            },
            |p| test(values[p as usize].widen()),
            sink,
        )),
        IntColumn::Packed { reference, packed } => {
            let r = *reference;
            apply(
                window,
                candidates,
                block,
                VALUE_KERNEL_FROM,
                |s, e, emit| kernels::packed_test_masks(packed, s, e, |c| test(r + c as i64), emit),
                |p| test(r + packed.get(p) as i64),
                sink,
            )
        }
        IntColumn::Rle { .. } => unreachable!("runs are walked by refine_int"),
    }
}

/// How a string predicate maps onto dictionary code space.
enum CodePred {
    /// No dictionary entry matches.
    Empty,
    /// The matching codes form one contiguous range (hierarchy predicates
    /// over the sorted dictionary): a single SWAR range kernel suffices.
    Range(u64, u64),
    /// Non-contiguous matches: per-code boolean table.
    Table(Vec<bool>),
}

impl CodePred {
    /// Evaluate `pred` once per distinct dictionary value and classify the
    /// matching code set. The sorted dictionary makes codes
    /// order-preserving, so hierarchy predicates (`=`, `BETWEEN`, prefix
    /// ranges) produce contiguous code runs — detected here and scanned
    /// with a single range kernel instead of a per-code table lookup.
    fn compile(dict: &[Box<str>], pred: &Pred) -> CodePred {
        let matches: Vec<bool> = dict.iter().map(|d| pred.matches_str(d)).collect();
        let Some(first) = matches.iter().position(|&b| b) else {
            return CodePred::Empty;
        };
        let last = matches.iter().rposition(|&b| b).expect("a match exists");
        if matches[first..=last].iter().all(|&b| b) {
            return CodePred::Range(first as u64, last as u64);
        }
        CodePred::Table(matches)
    }
}

/// The string arms of [`refine`]: dictionary columns scan their packed codes
/// through the integer kernels; plain string columns evaluate the predicate
/// per value — the cost difference Figure 8 exposes ("a predicate on the
/// integer foreign key can be performed faster than a predicate on a string
/// attribute").
fn refine_str(
    col: &StrColumn,
    window: &Range<u32>,
    candidates: &PosList,
    pred: &Pred,
    block: bool,
    sink: &mut PosAccumulator,
) {
    match col {
        StrColumn::Dict { dict, codes } => match CodePred::compile(dict, pred) {
            CodePred::Empty => {}
            CodePred::Range(lo, hi) => {
                let Some(cmp) = PackedCmp::new(codes, CmpOp::Range(lo, hi)) else {
                    return;
                };
                apply(
                    window,
                    candidates,
                    block,
                    swar_kernel_from(codes),
                    |s, e, emit| cmp.masks(s, e, emit),
                    |p| (lo..=hi).contains(&codes.get(p)),
                    sink,
                )
            }
            CodePred::Table(matches) => apply(
                window,
                candidates,
                block,
                VALUE_KERNEL_FROM,
                |s, e, emit| kernels::packed_test_masks(codes, s, e, |c| matches[c as usize], emit),
                |p| matches[codes.get(p) as usize],
                sink,
            ),
        },
        // No word kernel over variable-length values: every candidate is
        // compared as a string.
        StrColumn::Plain { values, .. } => apply(
            window,
            candidates,
            block,
            NO_KERNEL,
            |_, _, _| unreachable!("plain strings have no word kernel"),
            |p| pred.matches_str(&values[p as usize]),
            sink,
        ),
    }
}

/// Refine `candidates` — positions of `window` that are still live — by
/// `pred` over `col`: the one way a predicate is applied to a column.
/// Returns the candidates whose value satisfies the predicate, in the
/// cheapest faithful representation; `PosList::all(window)` as candidates is
/// the plain window scan.
///
/// Work follows the candidates, not the window: contiguous candidates narrow
/// the kernel's range, bitmap candidates skip every empty 64-position word
/// and choose per word between the word kernel and per-candidate tests,
/// explicit candidates are tested one by one, RLE columns walk only the runs
/// under the candidates, and no candidates means no kernel at all. The
/// *charge* does not follow them: every call opens one I/O op and charges
/// the window's slice of the column's pages
/// ([`StoredColumn::charge_scan_range`], which for the whole column is the
/// full sequential scan) — the modeled disk reads the column sequentially
/// whatever the CPU then skips.
///
/// `window` must be the window `candidates` was built over.
pub fn refine(
    col: &StoredColumn,
    window: Range<u32>,
    candidates: &PosList,
    pred: &ScanPred<'_>,
    block: bool,
    io: &IoSession,
) -> PosList {
    assert_eq!(candidates.universe(), window.len() as u32, "candidates of another window");
    col.charge_scan_range(window.start, window.end, io);
    let mut acc = PosAccumulator::new(window.clone());
    if candidates.is_empty() {
        return acc.finish();
    }
    match (&col.column, pred) {
        (Column::Int(int), _) => refine_int(int, &window, candidates, pred, block, &mut acc),
        (Column::Str(s), ScanPred::Logical(p)) => {
            refine_str(s, &window, candidates, p, block, &mut acc)
        }
        (Column::Str(_), _) => panic!("integer predicate over string column {}", col.name),
    }
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_data::value::Value;
    use cvr_storage::encode::{IntColumn, StrColumn};

    fn int_col(values: Vec<i64>, compress: bool) -> StoredColumn {
        let c = if compress { IntColumn::auto(values) } else { IntColumn::plain(values) };
        StoredColumn::new("c", Column::Int(c))
    }

    fn packed_col(values: Vec<i64>) -> StoredColumn {
        let c = IntColumn::packed(&values).expect("values must pack");
        StoredColumn::new("c", Column::Int(c))
    }

    fn str_col(values: Vec<String>, compress: bool) -> StoredColumn {
        let c = if compress { StrColumn::dict(&values) } else { StrColumn::plain(values) };
        StoredColumn::new("c", Column::Str(c))
    }

    /// The plain window scan: every position is a candidate.
    fn scan(
        col: &StoredColumn,
        window: Range<u32>,
        pred: &ScanPred<'_>,
        block: bool,
        io: &IoSession,
    ) -> PosList {
        refine(col, window.clone(), &PosList::all(window), pred, block, io)
    }

    fn scan_int_where(
        col: &StoredColumn,
        window: Range<u32>,
        test: impl Fn(i64) -> bool,
        block: bool,
        io: &IoSession,
    ) -> PosList {
        scan(col, window, &ScanPred::Test(&test), block, io)
    }

    fn scan_pred(
        col: &StoredColumn,
        window: Range<u32>,
        pred: &Pred,
        block: bool,
        io: &IoSession,
    ) -> PosList {
        scan(col, window, &ScanPred::Logical(pred), block, io)
    }

    fn reference(values: &[i64], test: impl Fn(i64) -> bool) -> Vec<u32> {
        values.iter().enumerate().filter_map(|(i, &v)| test(v).then_some(i as u32)).collect()
    }

    #[test]
    fn plain_scan_block_and_tuple_agree() {
        let values: Vec<i64> = (0..10_000).map(|i| (i * 37) % 100).collect();
        let expected = reference(&values, |v| (10..=20).contains(&v));
        let col = int_col(values, false);
        let io = IoSession::unmetered();
        let a = scan_int_where(&col, col.positions(), |v| (10..=20).contains(&v), true, &io);
        let b = scan_int_where(&col, col.positions(), |v| (10..=20).contains(&v), false, &io);
        assert_eq!(a.to_vec(), expected);
        assert_eq!(b.to_vec(), expected);
    }

    #[test]
    fn packed_scan_all_interfaces_agree_with_plain() {
        let values: Vec<i64> = (0..10_000).map(|i| (i * 37) % 100).collect();
        let packed = packed_col(values.clone());
        assert!(packed.column.as_int().is_packed());
        let plain = int_col(values, false);
        let io = IoSession::unmetered();
        let range = ScanPred::Range { lo: 10, hi: 20 };
        let test = |v: i64| (10..=20).contains(&v);
        for block in [true, false] {
            let want = scan_int_where(&plain, plain.positions(), test, block, &io).to_vec();
            assert_eq!(
                scan(&packed, packed.positions(), &range, block, &io).to_vec(),
                want,
                "range b={block}"
            );
            assert_eq!(
                scan_int_where(&packed, packed.positions(), test, block, &io).to_vec(),
                want,
                "test b={block}"
            );
        }
    }

    #[test]
    fn rle_scan_emits_ranges() {
        // Sorted column: one matching stretch.
        let mut values = Vec::new();
        for v in 0..100i64 {
            values.extend(std::iter::repeat_n(v, 50));
        }
        let col = int_col(values.clone(), true);
        assert!(col.column.as_int().is_rle());
        let io = IoSession::unmetered();
        let pl = scan_int_where(&col, col.positions(), |v| (10..=19).contains(&v), true, &io);
        assert!(matches!(pl, PosList::Range { .. }), "sorted match must be a range");
        assert_eq!(pl.to_vec(), reference(&values, |v| (10..=19).contains(&v)));
    }

    #[test]
    fn rle_scan_matches_plain_scan() {
        let mut values = Vec::new();
        for v in 0..50i64 {
            values.extend(std::iter::repeat_n(v % 7, 13));
        }
        let io = IoSession::unmetered();
        let rle = int_col(values.clone(), true);
        let plain = int_col(values.clone(), false);
        let a = scan_int_where(&rle, rle.positions(), |v| v == 3, true, &io);
        let b = scan_int_where(&plain, plain.positions(), |v| v == 3, true, &io);
        assert_eq!(a.to_vec(), b.to_vec());
    }

    #[test]
    fn dict_scan_matches_plain_scan() {
        let values: Vec<String> = (0..5000).map(|i| format!("R{}", i % 7)).collect();
        let pred = Pred::InSet(vec![Value::str("R2"), Value::str("R5")]);
        let io = IoSession::unmetered();
        let d = str_col(values.clone(), true);
        let p = str_col(values.clone(), false);
        for block in [true, false] {
            let a = scan_pred(&d, d.positions(), &pred, block, &io);
            let b = scan_pred(&p, p.positions(), &pred, block, &io);
            assert_eq!(a.to_vec(), b.to_vec());
            let expected = (0..5000).filter(|i| matches!(i % 7, 2 | 5)).count() as u32;
            assert_eq!(a.count(), expected);
        }
    }

    #[test]
    fn dict_contiguous_predicate_uses_range_and_agrees() {
        // "R2".."R4" is contiguous in the sorted dictionary — the range
        // kernel path; a disjoint IN-set exercises the table path. Both
        // must agree with plain strings.
        let values: Vec<String> = (0..3000).map(|i| format!("R{}", i % 9)).collect();
        let io = IoSession::unmetered();
        let d = str_col(values.clone(), true);
        let p = str_col(values, false);
        let contiguous = Pred::Between(Value::str("R2"), Value::str("R4"));
        let disjoint = Pred::InSet(vec![Value::str("R0"), Value::str("R8")]);
        for pred in [contiguous, disjoint] {
            for block in [true, false] {
                assert_eq!(
                    scan_pred(&d, d.positions(), &pred, block, &io).to_vec(),
                    scan_pred(&p, p.positions(), &pred, block, &io).to_vec(),
                    "{pred:?} block={block}"
                );
            }
        }
    }

    #[test]
    fn dense_result_becomes_bitmap() {
        let values: Vec<i64> = (0..10_000).map(|i| i % 2).collect();
        let col = int_col(values, false);
        let io = IoSession::unmetered();
        let pl = scan_int_where(&col, col.positions(), |v| v == 0, true, &io);
        assert!(matches!(pl, PosList::Bitmap { .. }));
        assert_eq!(pl.count(), 5_000);
    }

    #[test]
    fn sparse_result_stays_explicit() {
        let values: Vec<i64> = (0..10_000).collect();
        let col = int_col(values, false);
        let io = IoSession::unmetered();
        let pl = scan_int_where(&col, col.positions(), |v| v % 1000 == 17, true, &io);
        assert!(matches!(pl, PosList::Explicit { .. }));
        assert_eq!(pl.count(), 10);
    }

    #[test]
    fn full_match_is_range() {
        let col = int_col((0..100).collect(), false);
        let io = IoSession::unmetered();
        let pl = scan_int_where(&col, col.positions(), |_| true, true, &io);
        assert!(matches!(pl, PosList::Range { start: 0, end: 100, .. }));
    }

    #[test]
    fn scan_charges_column_io() {
        let col = int_col((0..200_000).collect(), false);
        let io = IoSession::unmetered();
        scan_int_where(&col, col.positions(), |_| false, true, &io);
        assert_eq!(io.stats().bytes_read, col.bytes());
    }

    #[test]
    fn range_kernels_tile_to_the_full_scan() {
        // Concatenating morsel-range results over a tiling of [0, n) must
        // equal the whole-column scan, for every encoding and interface.
        let n = 10_000u32;
        let ints: Vec<i64> = (0..n as i64).map(|i| (i * 37) % 100).collect();
        let mut runs = Vec::new();
        for v in 0..100i64 {
            runs.extend(std::iter::repeat_n(v % 9, 100));
        }
        let strs: Vec<String> = (0..n).map(|i| format!("R{}", i % 7)).collect();
        let bounds = [0u32, 1, 999, 1_000, 4_097, 9_999, n];
        let io = IoSession::unmetered();
        let pred = Pred::InSet(vec![Value::str("R2"), Value::str("R5")]);
        let in_3_40 = |v: i64| (3..=40).contains(&v);
        for block in [true, false] {
            for col in [
                int_col(ints.clone(), false),
                int_col(runs.clone(), true),
                packed_col(ints.clone()),
            ] {
                let full = scan_int_where(&col, col.positions(), in_3_40, block, &io).to_vec();
                let mut tiled = Vec::new();
                for w in bounds.windows(2) {
                    let part = scan_int_where(&col, w[0]..w[1], in_3_40, block, &io);
                    assert_eq!(part.universe(), w[1] - w[0], "sized by its window");
                    tiled.extend(part.iter());
                }
                assert_eq!(tiled, full);
                // The interval form must tile identically through the SWAR
                // kernels.
                let range = ScanPred::Range { lo: 3, hi: 40 };
                let full = scan(&col, col.positions(), &range, block, &io).to_vec();
                let mut tiled = Vec::new();
                for w in bounds.windows(2) {
                    tiled.extend(scan(&col, w[0]..w[1], &range, block, &io).iter());
                }
                assert_eq!(tiled, full);
            }
            for col in [str_col(strs.clone(), true), str_col(strs.clone(), false)] {
                let full = scan_pred(&col, col.positions(), &pred, block, &io).to_vec();
                let mut tiled = Vec::new();
                for w in bounds.windows(2) {
                    tiled.extend(scan_pred(&col, w[0]..w[1], &pred, block, &io).iter());
                }
                assert_eq!(tiled, full);
            }
        }
    }

    #[test]
    fn watched_scans_chunk_identically_and_observe_cancellation() {
        use crate::ctx::{catch_injected, watch_scans, QueryCtx, QueryError};
        let n = (SCAN_POLL_ROWS * 3 + 1234) as usize;
        let ints: Vec<i64> = (0..n as i64).map(|i| (i * 37) % 100).collect();
        let strs: Vec<String> = (0..n).map(|i| format!("R{}", i % 7)).collect();
        let io = IoSession::unmetered();
        let pred = Pred::InSet(vec![Value::str("R2"), Value::str("R5")]);
        let ctx = QueryCtx::unbounded();
        for block in [true, false] {
            for col in [int_col(ints.clone(), false), packed_col(ints.clone())] {
                let bare =
                    scan_int_where(&col, col.positions(), |v| (10..=20).contains(&v), block, &io)
                        .to_vec();
                let watched = {
                    let _w = watch_scans(&ctx);
                    scan_int_where(&col, col.positions(), |v| (10..=20).contains(&v), block, &io)
                        .to_vec()
                };
                assert_eq!(watched, bare, "chunked int scan must be output-identical");
            }
            for col in [str_col(strs.clone(), true), str_col(strs.clone(), false)] {
                let bare = scan_pred(&col, col.positions(), &pred, block, &io).to_vec();
                let watched = {
                    let _w = watch_scans(&ctx);
                    scan_pred(&col, col.positions(), &pred, block, &io).to_vec()
                };
                assert_eq!(watched, bare, "chunked str scan must be output-identical");
            }
        }
        // A cancelled context aborts the oversized scan at a chunk boundary,
        // transported as a QueryError panic payload.
        ctx.cancel();
        let col = int_col(ints, false);
        let _w = watch_scans(&ctx);
        let got = catch_injected(|| scan_int_where(&col, col.positions(), |v| v == 0, true, &io));
        assert_eq!(got.err(), Some(QueryError::Cancelled));
    }

    #[test]
    fn empty_range_scans_nothing() {
        let col = int_col((0..100).collect(), false);
        let io = IoSession::unmetered();
        assert!(scan_int_where(&col, 40..40, |_| true, true, &io).is_empty());
    }

    #[test]
    fn range_of_compiles_preds_without_overflow() {
        assert_eq!(ScanPred::range_of(&Pred::Eq(Value::Int(7))), Some((7, 7)));
        assert_eq!(
            ScanPred::range_of(&Pred::Lt(Value::Int(i64::MIN))),
            Some((1, 0)),
            "v < i64::MIN is the empty interval"
        );
        assert_eq!(
            ScanPred::range_of(&Pred::InSet(vec![Value::Int(4), Value::Int(3), Value::Int(5)])),
            Some((3, 5))
        );
        assert_eq!(
            ScanPred::range_of(&Pred::InSet(vec![Value::Int(3), Value::Int(5)])),
            None,
            "disjoint sets take the opaque path"
        );
        // Wide-spread members: hi - lo overflows i64; must not panic.
        assert_eq!(
            ScanPred::range_of(&Pred::InSet(vec![Value::Int(i64::MIN), Value::Int(i64::MAX)])),
            None
        );
        assert_eq!(ScanPred::range_of(&Pred::Eq(Value::str("x"))), None);
    }

    #[test]
    fn accumulator_contiguity() {
        let mut acc = PosAccumulator::new(0..100);
        acc.push_range(5, 10);
        assert!(matches!(acc.finish(), PosList::Range { start: 5, end: 10, .. }));
        let mut acc = PosAccumulator::new(0..100);
        acc.push(5);
        acc.push(7);
        assert!(matches!(acc.finish(), PosList::Explicit { .. }));
        let acc = PosAccumulator::new(0..100);
        assert!(acc.finish().is_empty());
    }

    #[test]
    fn accumulator_bulk_paths_match_per_push() {
        // Any interleaving of push/push_range/push_mask must finish to the
        // same positions as the equivalent per-position pushes — including
        // the contiguity verdict.
        let cases: Vec<Vec<(u32, u64)>> = vec![
            vec![(0, u64::MAX), (64, u64::MAX)], // solid, aligned
            vec![(0, 0b1011)],                   // broken mask
            vec![(10, 0b1111)],                  // unaligned solid
            vec![(60, u64::MAX), (124, 0b1)],    // straddles words, solid
            vec![(0, 1 << 63), (64, 0b1)],       // solid across masks
            vec![(0, 1 << 63), (64, 0b10)],      // gap across masks
        ];
        for masks in cases {
            let mut bulk = PosAccumulator::new(0..256);
            let mut bits = PosAccumulator::new(0..256);
            for &(base, mask) in &masks {
                bulk.push_mask(base, mask);
                for j in 0..64u32 {
                    if mask & (1 << j) != 0 {
                        bits.push(base + j);
                    }
                }
            }
            let (a, b) = (bulk.finish(), bits.finish());
            assert_eq!(a.to_vec(), b.to_vec(), "{masks:?}");
            assert_eq!(a.is_contiguous(), b.is_contiguous(), "contiguity for {masks:?}");
        }
        // Ranges big enough to upgrade to a bitmap mid-stream.
        let mut bulk = PosAccumulator::new(0..1000);
        let mut bits = PosAccumulator::new(0..1000);
        for (s, e) in [(0u32, 400u32), (500, 900)] {
            bulk.push_range(s, e);
            for p in s..e {
                bits.push(p);
            }
        }
        let (a, b) = (bulk.finish(), bits.finish());
        assert_eq!(a.to_vec(), b.to_vec());
        assert!(matches!(a, PosList::Bitmap { .. }));
    }
}
