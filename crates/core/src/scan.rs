//! Predicate application over encoded columns → position lists.
//!
//! This is where three of the paper's four optimizations physically live:
//!
//! * **Block iteration vs tuple iteration** (Section 5.3): every scan has
//!   two code paths — a block path (word-parallel kernels over native
//!   slices and packed words, see [`crate::kernels`]) and `get_next` (one
//!   virtual call per value through a boxed iterator). The paper notes it
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
//! Every scan covers a **window** of its column — the whole column for a
//! dimension predicate, one morsel for the fact pipeline — and every
//! (encoding × interface) combination funnels through one pair of drivers,
//! [`scan_int_into`] and [`scan_str_into`], emitting into a
//! [`PosAccumulator`] sized by that window.

use crate::kernels::{self, CmpOp};
use crate::poslist::{PosList, EXPLICIT_LIMIT_DIVISOR};
use cvr_data::queries::Pred;
use cvr_data::value::Value;
use cvr_index::bitmap::RidBitmap;
use cvr_storage::column::StoredColumn;
use cvr_storage::encode::{Column, IntColumn, StrColumn};
use cvr_storage::io::IoSession;
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

/// An integer predicate as the scan layer sees it: either a contiguous
/// interval (SWAR-eligible — equality, comparisons, between, and rewritten
/// join predicates all land here) or an opaque test (hash-set membership,
/// non-contiguous IN-lists).
pub enum IntScanPred<'a> {
    /// `lo <= v <= hi`, inclusive. `lo > hi` matches nothing.
    Range {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// Arbitrary per-value test.
    Test(&'a (dyn Fn(i64) -> bool + 'a)),
}

impl IntScanPred<'_> {
    /// Evaluate against one value (the tuple-at-a-time and RLE-run path).
    #[inline]
    pub fn matches(&self, v: i64) -> bool {
        match self {
            IntScanPred::Range { lo, hi } => v >= *lo && v <= *hi,
            IntScanPred::Test(f) => f(v),
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

/// Rows scanned between cancellation polls when a
/// [scan watch](crate::ctx::watch_scans) is active. A multiple of 64 so
/// chunk boundaries stay mask-word friendly; small enough that even a
/// tuple-at-a-time scan of one chunk completes in well under a millisecond.
pub const SCAN_POLL_ROWS: u32 = 1 << 16;

/// The unified integer scan driver: every encoding × interface combination
/// for positions `[start, end)` of `col`, emitting into `sink`. Block mode
/// routes through the word-parallel kernels; tuple mode keeps the paper's
/// one-virtual-call-per-value `get_next` loop.
///
/// When the executing thread has adopted a scan watch, oversized ranges are
/// walked in [`SCAN_POLL_ROWS`] chunks with a cancellation poll between
/// them — chunked and unchunked scans emit identical positions (range
/// tiling is exactly the morsel decomposition already tested), so this only
/// bounds abort latency, never changes results.
pub fn scan_int_into(
    col: &IntColumn,
    start: u32,
    end: u32,
    pred: &IntScanPred<'_>,
    block: bool,
    sink: &mut PosAccumulator,
) {
    if end.saturating_sub(start) > SCAN_POLL_ROWS && crate::ctx::scan_watch_active() {
        let mut s = start;
        while s < end {
            crate::ctx::poll_scan_watch();
            let e = s.saturating_add(SCAN_POLL_ROWS).min(end);
            scan_int_chunk(col, s, e, pred, block, sink);
            s = e;
        }
        return;
    }
    scan_int_chunk(col, start, end, pred, block, sink);
}

fn scan_int_chunk(
    col: &IntColumn,
    start: u32,
    end: u32,
    pred: &IntScanPred<'_>,
    block: bool,
    sink: &mut PosAccumulator,
) {
    if start >= end {
        return;
    }
    match col {
        IntColumn::Rle { runs, .. } => {
            // Run kernel: one predicate test per run, one O(words) range
            // push per match — direct operation on compressed data
            // regardless of the iteration interface (there is no per-value
            // interface to strip without decompressing, which is what the
            // `c` configurations do by storing plain).
            let mut idx = if start == 0 { 0 } else { col.run_containing(start) };
            while idx < runs.len() && runs[idx].start < end {
                let r = &runs[idx];
                if pred.matches(r.value) {
                    sink.push_range(r.start.max(start), (r.start + r.len).min(end));
                }
                idx += 1;
            }
        }
        IntColumn::Plain { values, .. } => {
            let slice = &values[start as usize..end as usize];
            if block {
                match pred {
                    IntScanPred::Range { lo, hi } => {
                        kernels::slice_cmp_masks(slice, start, *lo, *hi, |b, m| {
                            sink.push_mask(b, m)
                        });
                    }
                    IntScanPred::Test(f) => {
                        kernels::slice_test_masks(slice, start, f, |b, m| sink.push_mask(b, m));
                    }
                }
            } else {
                // Tuple-at-a-time: one opaque virtual call per value
                // (black_box prevents devirtualization, so the call cost is
                // real, like C-Store's getNext interface).
                let mut src: Box<dyn Iterator<Item = i64>> = Box::new(slice.iter().copied());
                let mut i = start;
                while let Some(v) = std::hint::black_box(&mut src).next() {
                    if pred.matches(v) {
                        sink.push(i);
                    }
                    i += 1;
                }
            }
        }
        IntColumn::Packed { reference, packed } => {
            if block {
                match pred {
                    IntScanPred::Range { lo, hi } => {
                        // SWAR compare on the packed image, 64 bits at a
                        // time, without unpacking a single value.
                        if let Some((lo_c, hi_c)) =
                            code_bounds(*reference, packed.max_code(), *lo, *hi)
                        {
                            kernels::packed_cmp_masks(
                                packed,
                                start,
                                end,
                                CmpOp::Range(lo_c, hi_c),
                                |b, m| sink.push_mask(b, m),
                            );
                        }
                    }
                    IntScanPred::Test(f) => {
                        let r = *reference;
                        kernels::packed_test_masks(
                            packed,
                            start,
                            end,
                            |c| f(r + c as i64),
                            |b, m| sink.push_mask(b, m),
                        );
                    }
                }
            } else {
                let r = *reference;
                let mut src: Box<dyn Iterator<Item = u64>> =
                    Box::new(packed.iter_range(start, end));
                let mut i = start;
                while let Some(c) = std::hint::black_box(&mut src).next() {
                    if pred.matches(r + c as i64) {
                        sink.push(i);
                    }
                    i += 1;
                }
            }
        }
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

/// The unified string scan driver, mirroring [`scan_int_into`]: dictionary
/// columns scan their packed codes through the integer kernels; plain
/// string columns evaluate the predicate per value — the cost difference
/// Figure 8 exposes ("a predicate on the integer foreign key can be
/// performed faster than a predicate on a string attribute"). Chunks under
/// an active scan watch exactly like [`scan_int_into`].
pub fn scan_str_into(
    col: &StrColumn,
    start: u32,
    end: u32,
    pred: &Pred,
    block: bool,
    sink: &mut PosAccumulator,
) {
    if end.saturating_sub(start) > SCAN_POLL_ROWS && crate::ctx::scan_watch_active() {
        let mut s = start;
        while s < end {
            crate::ctx::poll_scan_watch();
            let e = s.saturating_add(SCAN_POLL_ROWS).min(end);
            scan_str_chunk(col, s, e, pred, block, sink);
            s = e;
        }
        return;
    }
    scan_str_chunk(col, start, end, pred, block, sink);
}

fn scan_str_chunk(
    col: &StrColumn,
    start: u32,
    end: u32,
    pred: &Pred,
    block: bool,
    sink: &mut PosAccumulator,
) {
    if start >= end {
        return;
    }
    match col {
        StrColumn::Dict { dict, codes } => match CodePred::compile(dict, pred) {
            CodePred::Empty => {}
            CodePred::Range(lo, hi) => {
                if block {
                    kernels::packed_cmp_masks(codes, start, end, CmpOp::Range(lo, hi), |b, m| {
                        sink.push_mask(b, m)
                    });
                } else {
                    let mut src: Box<dyn Iterator<Item = u64>> =
                        Box::new(codes.iter_range(start, end));
                    let mut i = start;
                    while let Some(c) = std::hint::black_box(&mut src).next() {
                        if c >= lo && c <= hi {
                            sink.push(i);
                        }
                        i += 1;
                    }
                }
            }
            CodePred::Table(matches) => {
                if block {
                    kernels::packed_test_masks(
                        codes,
                        start,
                        end,
                        |c| matches[c as usize],
                        |b, m| sink.push_mask(b, m),
                    );
                } else {
                    let mut src: Box<dyn Iterator<Item = u64>> =
                        Box::new(codes.iter_range(start, end));
                    let mut i = start;
                    while let Some(c) = std::hint::black_box(&mut src).next() {
                        if matches[c as usize] {
                            sink.push(i);
                        }
                        i += 1;
                    }
                }
            }
        },
        StrColumn::Plain { values, .. } => {
            let slice = &values[start as usize..end as usize];
            if block {
                for (off, v) in slice.iter().enumerate() {
                    if pred.matches_str(v) {
                        sink.push(start + off as u32);
                    }
                }
            } else {
                let mut src: Box<dyn Iterator<Item = &Box<str>>> = Box::new(slice.iter());
                let mut i = start;
                while let Some(v) = std::hint::black_box(&mut src).next() {
                    if pred.matches_str(v) {
                        sink.push(i);
                    }
                    i += 1;
                }
            }
        }
    }
}

/// Scan positions `window` of `col` under an [`IntScanPred`] — the
/// kernel-aware entry point the join pipelines use (between-rewritten join
/// predicates arrive as [`IntScanPred::Range`] and hit the SWAR path).
/// Charges the window's slice of the column's pages
/// ([`StoredColumn::charge_scan_range`], which for the whole column is the
/// full sequential scan).
pub fn scan_int(
    col: &StoredColumn,
    window: Range<u32>,
    pred: &IntScanPred<'_>,
    block: bool,
    io: &IoSession,
) -> PosList {
    col.charge_scan_range(window.start, window.end, io);
    let mut acc = PosAccumulator::new(window.clone());
    scan_int_into(col.column.as_int(), window.start, window.end, pred, block, &mut acc);
    acc.finish()
}

/// [`scan_int`] under an opaque per-value test. (Structured predicates
/// should use [`scan_int`] so the SWAR kernels apply.)
pub fn scan_int_where(
    col: &StoredColumn,
    window: Range<u32>,
    test: impl Fn(i64) -> bool,
    block: bool,
    io: &IoSession,
) -> PosList {
    scan_int(col, window, &IntScanPred::Test(&test), block, io)
}

/// Scan positions `window` of a string column under `pred`.
///
/// Dictionary columns evaluate `pred` once per distinct value, then scan
/// the packed integer codes — through a single range kernel when the
/// matching codes are contiguous.
pub fn scan_str_pred(
    col: &StoredColumn,
    window: Range<u32>,
    pred: &Pred,
    block: bool,
    io: &IoSession,
) -> PosList {
    col.charge_scan_range(window.start, window.end, io);
    let mut acc = PosAccumulator::new(window.clone());
    scan_str_into(col.column.as_str(), window.start, window.end, pred, block, &mut acc);
    acc.finish()
}

/// Scan positions `window` of any column under a logical [`Pred`],
/// compiling integer predicates to their interval form (SWAR-eligible)
/// when possible.
pub fn scan_pred(
    col: &StoredColumn,
    window: Range<u32>,
    pred: &Pred,
    block: bool,
    io: &IoSession,
) -> PosList {
    match &col.column {
        Column::Int(_) => match IntScanPred::range_of(pred) {
            Some((lo, hi)) => scan_int(col, window, &IntScanPred::Range { lo, hi }, block, io),
            None => scan_int_where(col, window, |v| pred.matches_int(v), block, io),
        },
        Column::Str(_) => scan_str_pred(col, window, pred, block, io),
    }
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
        let range = IntScanPred::Range { lo: 10, hi: 20 };
        let test = |v: i64| (10..=20).contains(&v);
        for block in [true, false] {
            let want = scan_int_where(&plain, plain.positions(), test, block, &io).to_vec();
            assert_eq!(
                scan_int(&packed, packed.positions(), &range, block, &io).to_vec(),
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
            let a = scan_str_pred(&d, d.positions(), &pred, block, &io);
            let b = scan_str_pred(&p, p.positions(), &pred, block, &io);
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
                    scan_str_pred(&d, d.positions(), &pred, block, &io).to_vec(),
                    scan_str_pred(&p, p.positions(), &pred, block, &io).to_vec(),
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
                let range = IntScanPred::Range { lo: 3, hi: 40 };
                let full = scan_int(&col, col.positions(), &range, block, &io).to_vec();
                let mut tiled = Vec::new();
                for w in bounds.windows(2) {
                    tiled.extend(scan_int(&col, w[0]..w[1], &range, block, &io).iter());
                }
                assert_eq!(tiled, full);
            }
            for col in [str_col(strs.clone(), true), str_col(strs.clone(), false)] {
                let full = scan_str_pred(&col, col.positions(), &pred, block, &io).to_vec();
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
                let bare = scan_str_pred(&col, col.positions(), &pred, block, &io).to_vec();
                let watched = {
                    let _w = watch_scans(&ctx);
                    scan_str_pred(&col, col.positions(), &pred, block, &io).to_vec()
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
        assert_eq!(IntScanPred::range_of(&Pred::Eq(Value::Int(7))), Some((7, 7)));
        assert_eq!(
            IntScanPred::range_of(&Pred::Lt(Value::Int(i64::MIN))),
            Some((1, 0)),
            "v < i64::MIN is the empty interval"
        );
        assert_eq!(
            IntScanPred::range_of(&Pred::InSet(vec![Value::Int(4), Value::Int(3), Value::Int(5)])),
            Some((3, 5))
        );
        assert_eq!(
            IntScanPred::range_of(&Pred::InSet(vec![Value::Int(3), Value::Int(5)])),
            None,
            "disjoint sets take the opaque path"
        );
        // Wide-spread members: hi - lo overflows i64; must not panic.
        assert_eq!(
            IntScanPred::range_of(&Pred::InSet(vec![Value::Int(i64::MIN), Value::Int(i64::MAX)])),
            None
        );
        assert_eq!(IntScanPred::range_of(&Pred::Eq(Value::str("x"))), None);
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
