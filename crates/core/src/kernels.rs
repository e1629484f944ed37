//! Word-parallel scan kernels: branchless SWAR predicate evaluation that
//! lands results as whole 64-bit selection masks.
//!
//! The paper's block-iteration optimization (Section 5.3) strips the
//! per-value call overhead of `getNext`; these kernels go one step further
//! and strip the per-value *work*. Over the lane-aligned packed layout of
//! [`PackedInts`] (BitWeaving/H-style: `w` value bits plus one zero
//! delimiter bit per lane), a single 64-bit subtraction compares every lane
//! of a word at once:
//!
//! * each lane holds `x` with its top (delimiter) bit clear, so
//!   `(c + 2^w) - x` — computed for all lanes simultaneously as
//!   `(C | H) - X`, where `H` masks the delimiter bits — cannot borrow out
//!   of its lane, and its delimiter bit ends up set **iff `x ≤ c`**;
//! * equality uses `H - (X ⊕ C)`: the delimiter bit survives iff the lane
//!   XOR was zero;
//! * range predicates AND a `≥ lo` and a `≤ hi` comparison.
//!
//! The per-lane verdict bits are then compressed ("banked" together) into a
//! dense selection mask — one bit per value, 64 values per output word —
//! which bulk-loads into `crate::scan::PosAccumulator` /
//! [`cvr_index::bitmap::RidBitmap`] without ever taking a per-bit path.
//!
//! Three kernel families cover the encodings:
//!
//! * **packed kernels** ([`PackedCmp`], [`packed_test_masks`]) — SWAR
//!   compare (or per-lane unpack + test for opaque predicates) over the
//!   packed word image;
//! * **the plain kernels** ([`RangeTest::masks`], [`plain_masks`]) — generic
//!   loops over a plain column's typed slice (`u8`/`u16`/`u32`/`i64`), 64
//!   values a mask: a range test is one wrapped subtraction and one unsigned
//!   compare at the column's own width, whose 64 verdicts land as 64 bytes
//!   the compiler computes in vector registers and eight multiplies pack; a
//!   table look-up or an opaque test gathers its verdict bits in registers,
//!   eight short chains a mask;
//! * **run kernels** — RLE needs no mask construction at all: one predicate
//!   test per run and an `O(words)` range push, which lives in
//!   `crate::scan` next to the run clamping logic.
//!
//! The [`scalar`] submodule holds the one-value-at-a-time reference
//! implementations; property tests assert kernel/scalar equivalence and the
//! `kernels` bench measures the gap.

use cvr_storage::encode::PlainValue;
use cvr_storage::packed::PackedInts;

/// An integer comparison a SWAR kernel can evaluate, in *code space*
/// (unsigned, after frame-of-reference subtraction). Bounds are inclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `code == c`.
    Eq(u64),
    /// `code <= c`.
    Le(u64),
    /// `code < c` (strict; `Lt(0)` matches nothing).
    Lt(u64),
    /// `lo <= code <= hi`.
    Range(u64, u64),
}

impl CmpOp {
    /// Normalize to an inclusive `[lo, hi]` range clamped to codes of at
    /// most `max`; `None` when nothing can match.
    pub fn bounds(self, max: u64) -> Option<(u64, u64)> {
        let (lo, hi) = match self {
            CmpOp::Eq(c) => (c, c),
            CmpOp::Le(c) => (0, c),
            CmpOp::Lt(0) => return None,
            CmpOp::Lt(c) => (0, c - 1),
            CmpOp::Range(lo, hi) => (lo, hi),
        };
        if lo > hi || lo > max {
            return None;
        }
        Some((lo, hi.min(max)))
    }
}

/// Delimiter-bit mask: the top bit of each of `lanes` lanes of `lane_bits`.
#[inline]
pub fn lane_msb_mask(lane_bits: u32, lanes: u32) -> u64 {
    let mut h = 0u64;
    for i in 0..lanes {
        h |= 1u64 << (i * lane_bits + lane_bits - 1);
    }
    h
}

/// Broadcast `code` into every lane (delimiter bits left clear).
#[inline]
pub fn broadcast(code: u64, lane_bits: u32, lanes: u32) -> u64 {
    let mut b = 0u64;
    for i in 0..lanes {
        b |= code << (i * lane_bits);
    }
    b
}

/// Per-lane `x <= c`: delimiter bit of each lane set on success. `c_or_h`
/// is `broadcast(c) | H` and `h` is the delimiter mask [`lane_msb_mask`].
/// Requires every delimiter bit of `x` clear (the packed-layout invariant):
/// each lane then computes `c + 2^w - x`, which cannot borrow into the next
/// lane and carries into the delimiter bit exactly when `x <= c`.
#[inline]
pub fn swar_le(x: u64, c_or_h: u64, h: u64) -> u64 {
    (c_or_h - x) & h
}

/// Per-lane `x >= c` (`c` broadcast with delimiter bits clear): each lane
/// computes `x + 2^w - c`, whose delimiter bit survives iff `x >= c`.
#[inline]
pub fn swar_ge(x: u64, c: u64, h: u64) -> u64 {
    ((x | h) - c) & h
}

/// Per-lane `x == c`: `t = x ^ c` is zero only in matching lanes, and
/// `2^w - t` keeps the delimiter bit only when `t == 0`.
#[inline]
pub fn swar_eq(x: u64, c: u64, h: u64) -> u64 {
    (h - (x ^ c)) & h
}

/// Hoisted-constant compressor turning per-lane delimiter-bit verdicts
/// into a dense bit string: bit `i` of the output is lane `i`'s verdict.
///
/// Three regimes, cheapest first:
/// * all-zero / all-match verdict words skip compression entirely (the
///   dominant case at the selectivity extremes);
/// * lanes of ≥ 8 bits gather every delimiter bit with **one multiply**
///   (the movemask-by-multiplication trick): multiplying by
///   `Σⱼ 2^((L-1)·j)` translates the bit of lane `i` to position
///   `(L-1)·K + i` exactly when `j = K-1-i`, and the lane geometry makes
///   every other (i, j) product land outside the output window with no two
///   terms colliding — so the multiply is carry-free and the window reads
///   out the dense verdicts directly;
/// * narrower lanes (K up to 32 gathers would collide) fall back to a
///   shift loop.
#[derive(Debug, Clone, Copy)]
pub struct LaneCompressor {
    lane_bits: u32,
    lanes: u32,
    /// All delimiter bits set — the all-match verdict.
    h: u64,
    /// All verdict bits set — the all-match output.
    full: u64,
    /// Multiply-gather constant (`0` selects the shift-loop fallback).
    mul: u64,
    /// Output window position for the multiply gather.
    shift: u32,
}

impl LaneCompressor {
    /// Compressor for words of `lanes` lanes of `lane_bits` each.
    pub fn new(lane_bits: u32, lanes: u32) -> LaneCompressor {
        let h = lane_msb_mask(lane_bits, lanes);
        let full = low_bits(lanes);
        // Collision analysis (see struct docs): the single-multiply gather
        // is carry-free iff no two (i, j) terms coincide, which holds for
        // lane_bits >= 8 (then lanes <= 8 <= lane_bits - 1 + 1).
        let (mul, shift) = if lane_bits >= 8 {
            let mut c = 0u64;
            for j in 0..lanes {
                c |= 1u64 << ((lane_bits - 1) * j);
            }
            (c, (lane_bits - 1) * lanes)
        } else {
            (0, 0)
        };
        LaneCompressor { lane_bits, lanes, h, full, mul, shift }
    }

    /// Compress one verdict word (delimiter-bit form) to dense bits.
    #[inline]
    pub fn compress(&self, msb: u64) -> u64 {
        if msb == 0 {
            return 0;
        }
        if msb == self.h {
            return self.full;
        }
        if self.mul != 0 {
            return (msb.wrapping_mul(self.mul) >> self.shift) & self.full;
        }
        let mut m = msb >> (self.lane_bits - 1); // verdict at each lane's bit 0
        let mut out = 0u64;
        for i in 0..self.lanes {
            out |= (m & 1) << i;
            m >>= self.lane_bits;
        }
        out
    }
}

/// Compress per-lane delimiter-bit verdicts into a dense bit string: bit
/// `i` of the result is lane `i`'s verdict. One-shot form of
/// [`LaneCompressor`] — hot loops should hoist the compressor instead.
#[inline]
pub fn compress_msbs(msb: u64, lane_bits: u32, lanes: u32) -> u64 {
    LaneCompressor::new(lane_bits, lanes).compress(msb)
}

/// The low `n` bits (`n <= 63`).
#[inline]
fn low_bits(n: u32) -> u64 {
    debug_assert!(n < 64);
    (1u64 << n) - 1
}

/// Shared mask driver: walk the packed words covering positions
/// `[start, end)`, turn each word into dense per-lane verdict bits (bit `i`
/// = lane `i`) via `bits_of`, and re-buffer the bits into 64-value output
/// masks. `emit(base, mask)` receives ascending 64-aligned-from-`start`
/// bases; the final mask may cover fewer than 64 positions (high bits
/// zero).
fn run_masks(
    words: &[u64],
    lanes: u32,
    start: u32,
    end: u32,
    bits_of: impl Fn(u64) -> u64,
    mut emit: impl FnMut(u32, u64),
) {
    let mut base = start;
    let mut buf = 0u64;
    let mut fill = 0u32;
    let mut wi = (start / lanes) as usize;
    let last = ((end - 1) / lanes) as usize;
    let mut lane0 = start % lanes;
    while wi <= last {
        let lane_end = if wi == last { (end - 1) % lanes + 1 } else { lanes };
        let cnt = lane_end - lane0;
        // Verdicts for out-of-range lanes are dropped here (lanes < 64, so
        // `low_bits` is safe).
        let bits = (bits_of(words[wi]) >> lane0) & low_bits(cnt);
        buf |= bits << fill;
        let total = fill + cnt;
        if total >= 64 {
            emit(base, buf);
            base += 64;
            fill = total - 64;
            buf = if fill == 0 { 0 } else { bits >> (cnt - fill) };
        } else {
            fill = total;
        }
        lane0 = 0;
        wi += 1;
    }
    if fill > 0 {
        emit(base, buf);
    }
}

/// Emit all-ones masks covering `[start, end)` — the full-match fast path.
fn emit_all_ones(start: u32, end: u32, mut emit: impl FnMut(u32, u64)) {
    let mut base = start;
    while base < end {
        let n = (end - base).min(64);
        let mask = if n == 64 { u64::MAX } else { low_bits(n) };
        emit(base, mask);
        base += n;
    }
}

/// Which SWAR comparison a [`PackedCmp`] runs, with its broadcast constants.
#[derive(Debug, Clone, Copy)]
enum LaneTest {
    /// Every code matches.
    All,
    /// `code == c`.
    Eq(u64),
    /// `code <= c`; holds `broadcast(c) | H`.
    Le(u64),
    /// `code >= c`.
    Ge(u64),
    /// `lo <= code <= hi`; holds `broadcast(lo)` and `broadcast(hi) | H`.
    Range(u64, u64),
}

/// A [`CmpOp`] compiled against one packed array: lane geometry, delimiter
/// mask, broadcast bounds and verdict compressor are derived once, so a scan
/// that runs the kernel over many short stretches of a window (the dense
/// words of bitmap candidates) pays them once per window, not per stretch.
#[derive(Debug, Clone, Copy)]
pub struct PackedCmp<'a> {
    p: &'a PackedInts,
    lanes: u32,
    h: u64,
    cx: LaneCompressor,
    test: LaneTest,
}

impl<'a> PackedCmp<'a> {
    /// Compile `op` over `p`; `None` when no code of `p` can match.
    pub fn new(p: &'a PackedInts, op: CmpOp) -> Option<PackedCmp<'a>> {
        let max = p.max_code();
        let (lo, hi) = op.bounds(max)?;
        let lane_bits = p.lane_bits() as u32;
        let lanes = p.lanes_per_word() as u32;
        let h = lane_msb_mask(lane_bits, lanes);
        let b = |code| broadcast(code, lane_bits, lanes);
        let test = if lo == 0 && hi == max {
            LaneTest::All
        } else if lo == hi {
            LaneTest::Eq(b(lo))
        } else if lo == 0 {
            LaneTest::Le(b(hi) | h)
        } else if hi == max {
            LaneTest::Ge(b(lo))
        } else {
            LaneTest::Range(b(lo), b(hi) | h)
        };
        Some(PackedCmp { p, lanes, h, cx: LaneCompressor::new(lane_bits, lanes), test })
    }

    /// Evaluate over positions `[start, end)`, emitting dense selection
    /// masks: `emit(base, mask)` where bit `j` of `mask` selects position
    /// `base + j`. Bases ascend in steps of 64 from `start`; all-zero masks
    /// may be emitted or skipped — sinks must treat them as no-ops either
    /// way.
    pub fn masks(&self, start: u32, end: u32, emit: impl FnMut(u32, u64)) {
        let end = end.min(self.p.len());
        if start >= end {
            return;
        }
        let (words, lanes, h, cx) = (self.p.words(), self.lanes, self.h, self.cx);
        match self.test {
            LaneTest::All => emit_all_ones(start, end, emit),
            LaneTest::Eq(c) => {
                run_masks(words, lanes, start, end, |x| cx.compress(swar_eq(x, c, h)), emit)
            }
            LaneTest::Le(c_or_h) => {
                run_masks(words, lanes, start, end, |x| cx.compress(swar_le(x, c_or_h, h)), emit)
            }
            LaneTest::Ge(c) => {
                run_masks(words, lanes, start, end, |x| cx.compress(swar_ge(x, c, h)), emit)
            }
            LaneTest::Range(lo, hi_or_h) => run_masks(
                words,
                lanes,
                start,
                end,
                |x| cx.compress(swar_ge(x, lo, h) & swar_le(x, hi_or_h, h)),
                emit,
            ),
        }
    }
}

/// Evaluate an opaque per-code predicate over `[start, end)` of `p`, still
/// one word of codes (and one output mask word) at a time — the fallback
/// for predicates SWAR cannot express (hash-set membership, IN-lists over
/// non-contiguous codes). Unused tail lanes are zero by the packed-layout
/// contract, so `test(0)` must be safe to call (its verdict is discarded).
pub fn packed_test_masks(
    p: &PackedInts,
    start: u32,
    end: u32,
    test: impl Fn(u64) -> bool,
    emit: impl FnMut(u32, u64),
) {
    let end = end.min(p.len());
    if start >= end {
        return;
    }
    let lane_bits = p.lane_bits() as u32;
    let lanes = p.lanes_per_word() as u32;
    let code_mask = p.max_code();
    run_masks(
        p.words(),
        lanes,
        start,
        end,
        |word| {
            let mut bits = 0u64;
            let mut w = word;
            for i in 0..lanes {
                bits |= (test(w & code_mask) as u64) << i;
                w >>= lane_bits;
            }
            bits
        },
        emit,
    );
}

/// `lo <= v <= hi` over a plain column held at type `T`, compiled to one
/// wrapped subtraction and one unsigned compare at `T`'s own width — the
/// form that vectorizes.
#[derive(Debug, Clone, Copy)]
pub struct RangeTest<T> {
    lo: T,
    /// `hi - lo`, as the unsigned distance.
    span: T,
}

/// A plain value type the range kernel can compare at its own width.
pub trait Lane: PlainValue {
    /// Whether the baseline target compares lanes of this type in vector
    /// registers: x86-64's SSE2 does for 8, 16 and 32 bits, and has no
    /// 64-bit compare.
    const VECTOR_COMPARE: bool;
    /// `hi - lo` for `lo <= hi`, wrapped: the distance as an unsigned number.
    fn distance(lo: Self, hi: Self) -> Self;
    /// Whether `self - lo`, wrapped and read as unsigned, is at most `span`.
    fn within(self, lo: Self, span: Self) -> bool;
}

macro_rules! lane {
    ($($t:ty as $u:ty),*) => {$(
        impl Lane for $t {
            const VECTOR_COMPARE: bool = <$t>::BITS < 64;
            #[inline]
            fn distance(lo: $t, hi: $t) -> $t {
                hi.wrapping_sub(lo)
            }
            #[inline]
            fn within(self, lo: $t, span: $t) -> bool {
                self.wrapping_sub(lo) as $u <= span as $u
            }
        }
    )*};
}
lane!(u8 as u8, u16 as u16, u32 as u32, i64 as u64);

impl<T: Lane> RangeTest<T> {
    /// The test for the inclusive `[lo, hi]`, the bounds clamped to `T`'s
    /// domain before they are narrowed to it; `None` when no value of `T`
    /// can match (`lo > hi`, or the interval lies outside the domain).
    pub fn clamped(lo: i64, hi: i64) -> Option<RangeTest<T>> {
        let (lo, hi) = (lo.max(T::MIN.widen()), hi.min(T::MAX.widen()));
        if lo > hi {
            return None;
        }
        let (lo, hi) = (T::narrow(lo)?, T::narrow(hi)?);
        Some(RangeTest { lo, span: T::distance(lo, hi) })
    }

    /// The verdict on one value.
    #[inline]
    pub fn matches(&self, v: T) -> bool {
        v.within(self.lo, self.span)
    }

    /// [`plain_masks`] of this test. Where lanes compare in vector registers
    /// the 64 verdicts of a block are produced as 64 bytes — a loop the
    /// compiler turns into packed subtract-and-compare, 0.16 ns a value at
    /// two bytes against 0.60 through [`plain_masks`] — and packed into the
    /// mask with eight multiplies. Where they do not, the bytes would be
    /// stored one at a time and reloaded eight at a time, which stalls on
    /// every reload (1.15 ns a value at eight bytes against 0.60).
    pub fn masks(&self, values: &[T], base: u32, emit: impl FnMut(u32, u64)) {
        if !T::VECTOR_COMPARE {
            return plain_masks(values, base, |v| self.matches(v), emit);
        }
        let mask_of = |block: &[T]| {
            let mut verdicts = [0u8; 64];
            for (byte, &v) in verdicts.iter_mut().zip(block) {
                *byte = self.matches(v) as u8;
            }
            pack_verdicts(&verdicts)
        };
        block_masks(values, base, mask_of, emit)
    }
}

/// Pack 64 verdict bytes (each 0 or 1) into a mask, bit `j` from byte `j`:
/// eight bytes at a time, one multiply moves byte `k`'s low bit to bit
/// `56 + k` (the products `2^(8k) · 2^(56 - 7k')` are pairwise distinct, so
/// nothing carries).
#[inline]
fn pack_verdicts(bytes: &[u8; 64]) -> u64 {
    let mut mask = 0u64;
    for (i, eight) in bytes.chunks_exact(8).enumerate() {
        let x = u64::from_le_bytes(eight.try_into().expect("chunks of eight"));
        mask |= (x.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * i);
    }
    mask
}

/// Walk `values` in blocks of 64, emitting `mask_of(block)` under ascending
/// bases from `base`. The last block may be short; its mask's high bits
/// must come out zero.
#[inline]
fn block_masks<T>(
    values: &[T],
    base: u32,
    mask_of: impl Fn(&[T]) -> u64,
    mut emit: impl FnMut(u32, u64),
) {
    let mut at = base;
    let mut blocks = values.chunks_exact(64);
    for block in &mut blocks {
        emit(at, mask_of(block));
        at += 64;
    }
    if !blocks.remainder().is_empty() {
        emit(at, mask_of(blocks.remainder()));
    }
}

/// Masks of `verdict` over a plain column's typed slice: bit `j` of the mask
/// emitted for base `b` is the verdict on `values[(b - base) + j]`, i.e. on
/// position `b + j` when `base` is the slice's first position. The verdicts
/// of a 64-value block are gathered in registers as eight independent bytes
/// of eight bits, so a value waits for at most seven predecessors' bits —
/// table look-ups and opaque tests overlap.
pub fn plain_masks<T: Copy>(
    values: &[T],
    base: u32,
    verdict: impl Fn(T) -> bool,
    emit: impl FnMut(u32, u64),
) {
    let mask_of = |block: &[T]| {
        let mut mask = 0u64;
        for (i, eight) in block.chunks(8).enumerate() {
            let mut byte = 0u64;
            for (k, &v) in eight.iter().enumerate() {
                byte |= (verdict(v) as u64) << k;
            }
            mask |= byte << (8 * i);
        }
        mask
    };
    block_masks(values, base, mask_of, emit)
}

/// One-value-at-a-time reference implementations of every kernel — the
/// "scalar block iteration" baselines the property tests compare against
/// and the `kernels` bench measures the word-parallel speedup over.
pub mod scalar {
    use super::CmpOp;
    use cvr_storage::packed::PackedInts;

    /// Scalar counterpart of [`super::PackedCmp`]: unpack each code,
    /// compare, push matching positions.
    pub fn packed_cmp_positions(p: &PackedInts, start: u32, end: u32, op: CmpOp) -> Vec<u32> {
        let mut out = Vec::new();
        let end = end.min(p.len());
        let Some((lo, hi)) = op.bounds(p.max_code()) else {
            return out;
        };
        for i in start..end {
            let c = p.get(i);
            if c >= lo && c <= hi {
                out.push(i);
            }
        }
        out
    }

    /// Scalar counterpart of [`super::packed_test_masks`].
    pub fn packed_test_positions(
        p: &PackedInts,
        start: u32,
        end: u32,
        test: impl Fn(u64) -> bool,
    ) -> Vec<u32> {
        let mut out = Vec::new();
        for i in start..end.min(p.len()) {
            if test(p.get(i)) {
                out.push(i);
            }
        }
        out
    }

    /// Scalar counterpart of [`super::plain_masks`].
    pub fn plain_positions<T: Copy>(
        values: &[T],
        base: u32,
        verdict: impl Fn(T) -> bool,
    ) -> Vec<u32> {
        let mut out = Vec::new();
        for (j, &v) in values.iter().enumerate() {
            if verdict(v) {
                out.push(base + j as u32);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collect kernel mask output as positions.
    fn positions(f: impl FnOnce(&mut dyn FnMut(u32, u64))) -> Vec<u32> {
        let mut out = Vec::new();
        let mut emit = |base: u32, mut m: u64| {
            while m != 0 {
                out.push(base + m.trailing_zeros());
                m &= m - 1;
            }
        };
        f(&mut emit);
        out
    }

    fn pack(w: u8, codes: &[u64]) -> PackedInts {
        PackedInts::pack(w, codes.iter().copied())
    }

    #[test]
    fn swar_primitives_agree_with_scalar_on_all_small_pairs() {
        for w in [1u32, 3, 7] {
            let lane_bits = w + 1;
            let lanes = 64 / lane_bits;
            let h = lane_msb_mask(lane_bits, lanes);
            let max = (1u64 << w) - 1;
            for c in 0..=max {
                let cb = broadcast(c, lane_bits, lanes);
                // One word holding `lanes` consecutive values x, x+1, ...
                for x0 in 0..=max {
                    let xs: Vec<u64> = (0..lanes as u64).map(|i| (x0 + i) % (max + 1)).collect();
                    let mut word = 0u64;
                    for (i, &x) in xs.iter().enumerate() {
                        word |= x << (i as u32 * lane_bits);
                    }
                    let le = compress_msbs(swar_le(word, cb | h, h), lane_bits, lanes);
                    let ge = compress_msbs(swar_ge(word, cb, h), lane_bits, lanes);
                    let eq = compress_msbs(swar_eq(word, cb, h), lane_bits, lanes);
                    for (i, &x) in xs.iter().enumerate() {
                        assert_eq!(le >> i & 1 == 1, x <= c, "le w={w} x={x} c={c}");
                        assert_eq!(ge >> i & 1 == 1, x >= c, "ge w={w} x={x} c={c}");
                        assert_eq!(eq >> i & 1 == 1, x == c, "eq w={w} x={x} c={c}");
                    }
                }
            }
        }
    }

    #[test]
    fn packed_cmp_matches_scalar_across_ops_and_boundaries() {
        for w in [1u8, 4, 6, 13, 20] {
            let max = (1u64 << w) - 1;
            for n in [63u32, 64, 65, 257] {
                let codes: Vec<u64> =
                    (0..n as u64).map(|i| i.wrapping_mul(2_654_435_761) % (max + 1)).collect();
                let p = pack(w, &codes);
                let ops = [
                    CmpOp::Eq(codes.first().copied().unwrap_or(0)),
                    CmpOp::Le(max / 2),
                    CmpOp::Lt(max / 3 + 1),
                    CmpOp::Lt(0),
                    CmpOp::Range(max / 4, max / 2),
                    CmpOp::Range(0, max),
                    CmpOp::Range(3, 2),
                    CmpOp::Eq(max),
                ];
                for op in ops {
                    for (s, e) in [(0u32, n), (1, n - 1), (63, 65.min(n)), (n, n)] {
                        let got = positions(|emit| {
                            if let Some(cmp) = PackedCmp::new(&p, op) {
                                cmp.masks(s, e, emit)
                            }
                        });
                        let want = scalar::packed_cmp_positions(&p, s, e, op);
                        assert_eq!(got, want, "w={w} n={n} op={op:?} range=[{s},{e})");
                    }
                }
            }
        }
    }

    #[test]
    fn packed_test_matches_scalar() {
        let codes: Vec<u64> = (0..300u64).map(|i| i % 37).collect();
        let p = pack(6, &codes);
        let test = |c: u64| c % 3 == 1;
        let got = positions(|emit| packed_test_masks(&p, 5, 290, test, emit));
        assert_eq!(got, scalar::packed_test_positions(&p, 5, 290, test));
    }

    #[test]
    fn plain_kernel_matches_scalar() {
        let values: Vec<i64> = (0..200).map(|i| (i * 37) % 100 - 50).collect();
        let range = RangeTest::<i64>::clamped(-20, 20).expect("non-empty");
        let got = positions(|emit| range.masks(&values, 10, emit));
        assert_eq!(got, scalar::plain_positions(&values, 10, |v| (-20..=20).contains(&v)));
        let got = positions(|emit| plain_masks(&values, 0, |v| v == 13, emit));
        assert_eq!(got, scalar::plain_positions(&values, 0, |v| v == 13));
    }

    #[test]
    fn range_bounds_clamp_to_the_width_before_narrowing() {
        // 300 would narrow to 44 and -1 to 255: clamping first keeps them out.
        let all = RangeTest::<u8>::clamped(-1, 300).expect("covers the domain");
        assert!([0u8, 44, 255].iter().all(|&v| all.matches(v)));
        let top = RangeTest::<u8>::clamped(200, i64::MAX).expect("200..=255");
        assert!(top.matches(200) && top.matches(255) && !top.matches(199) && !top.matches(0));
        assert!(RangeTest::<u8>::clamped(256, 300).is_none());
        assert!(RangeTest::<u16>::clamped(i64::MIN, -1).is_none());
        assert!(RangeTest::<u32>::clamped(5, 4).is_none());
        let wide = RangeTest::<i64>::clamped(i64::MIN, i64::MAX).expect("everything");
        assert!(wide.matches(i64::MIN) && wide.matches(-1) && wide.matches(i64::MAX));
        let neg = RangeTest::<i64>::clamped(-5, 5).expect("non-empty");
        assert!(neg.matches(-5) && neg.matches(5) && !neg.matches(6) && !neg.matches(i64::MIN));
    }

    #[test]
    fn verdict_bytes_pack_to_their_bit() {
        for j in 0..64 {
            let mut bytes = [0u8; 64];
            bytes[j] = 1;
            assert_eq!(pack_verdicts(&bytes), 1 << j);
        }
        assert_eq!(pack_verdicts(&[1; 64]), u64::MAX);
    }

    #[test]
    fn full_range_takes_the_all_ones_path() {
        let p = pack(3, &[0, 1, 2, 3, 4, 5, 6, 7]);
        let cmp = PackedCmp::new(&p, CmpOp::Range(0, 7)).expect("matches");
        let got = positions(|emit| cmp.masks(0, 8, emit));
        assert_eq!(got, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn multiply_gather_matches_shift_loop_for_every_lane_width() {
        // The mul-gather path (lane_bits >= 8) must agree with the naive
        // per-lane loop for every geometry and verdict pattern.
        let naive = |msb: u64, lane_bits: u32, lanes: u32| -> u64 {
            let mut out = 0u64;
            for i in 0..lanes {
                out |= ((msb >> (i * lane_bits + lane_bits - 1)) & 1) << i;
            }
            out
        };
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for lane_bits in 2u32..=32 {
            let lanes = 64 / lane_bits;
            let h = lane_msb_mask(lane_bits, lanes);
            let cx = LaneCompressor::new(lane_bits, lanes);
            for _ in 0..200 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let msb = state & h; // arbitrary verdict subset
                assert_eq!(
                    cx.compress(msb),
                    naive(msb, lane_bits, lanes),
                    "lane_bits={lane_bits} msb={msb:#x}"
                );
            }
            assert_eq!(cx.compress(0), 0);
            assert_eq!(cx.compress(h), low_bits(lanes));
        }
    }

    #[test]
    fn cmp_bounds_normalization() {
        assert_eq!(CmpOp::Eq(5).bounds(7), Some((5, 5)));
        assert_eq!(CmpOp::Eq(9).bounds(7), None);
        assert_eq!(CmpOp::Le(9).bounds(7), Some((0, 7)));
        assert_eq!(CmpOp::Lt(0).bounds(7), None);
        assert_eq!(CmpOp::Lt(3).bounds(7), Some((0, 2)));
        assert_eq!(CmpOp::Range(2, 1).bounds(7), None);
    }
}
