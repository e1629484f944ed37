//! Position lists — the intermediate currency of late materialization.
//!
//! Section 5.2: "this list of positions can be represented as a simple
//! array, a bit string ... or as a set of ranges of positions. These
//! position representations are then intersected". [`PosList`] implements
//! all three representations with representation-preserving intersection:
//! range ∩ range stays a range (the common case under between-predicate
//! rewriting on the sorted fact column), bitmaps AND word-wise, and mixed
//! forms degrade gracefully.
//!
//! A list lives in a **window** of a column: the whole column for dimension
//! scans, one morsel for the fact pipeline. Positions are always absolute;
//! `universe` is the window's length, which sizes bitmaps (a morsel's
//! bitmap covers the morsel, never the column) and is the density yardstick
//! for choosing between explicit and bitmap form.

use cvr_index::bitmap::RidBitmap;
use std::ops::Range;

/// A set of ascending positions within a window of `universe` values.
#[derive(Debug, Clone, PartialEq)]
pub enum PosList {
    /// Contiguous positions `[start, end)`.
    Range {
        /// First position.
        start: u32,
        /// One past the last position.
        end: u32,
        /// Window length.
        universe: u32,
    },
    /// One bit per window position: bit `i` selects position `base + i`.
    Bitmap {
        /// First position of the window.
        base: u32,
        /// The window's bits; `bits.len()` is the window length.
        bits: RidBitmap,
    },
    /// Explicit ascending positions.
    Explicit {
        /// The positions, strictly ascending.
        positions: Vec<u32>,
        /// Window length.
        universe: u32,
    },
}

/// Selectivity threshold (as a divisor of the universe) above which scans
/// prefer a bitmap over an explicit list.
pub const EXPLICIT_LIMIT_DIVISOR: u32 = 16;

impl PosList {
    /// The empty list over `universe`.
    pub fn empty(universe: u32) -> PosList {
        PosList::Explicit { positions: Vec::new(), universe }
    }

    /// Every position of `window`.
    pub fn all(window: Range<u32>) -> PosList {
        PosList::Range { start: window.start, end: window.end, universe: window.len() as u32 }
    }

    /// Wrap ascending positions without changing representation.
    pub fn explicit(positions: Vec<u32>, universe: u32) -> PosList {
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
        PosList::Explicit { positions, universe }
    }

    /// Build from ascending positions: a range when they are contiguous,
    /// explicit otherwise.
    pub fn from_ascending(positions: Vec<u32>, universe: u32) -> PosList {
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
        match (positions.first(), positions.last()) {
            (Some(&first), Some(&last)) if positions.len() as u32 == last - first + 1 => {
                PosList::Range { start: first, end: last + 1, universe }
            }
            _ => PosList::Explicit { positions, universe },
        }
    }

    /// Window length.
    pub fn universe(&self) -> u32 {
        match self {
            PosList::Range { universe, .. } => *universe,
            PosList::Bitmap { bits, .. } => bits.len(),
            PosList::Explicit { universe, .. } => *universe,
        }
    }

    /// Number of selected positions.
    pub fn count(&self) -> u32 {
        match self {
            PosList::Range { start, end, .. } => end - start,
            PosList::Bitmap { bits, .. } => bits.count(),
            PosList::Explicit { positions, .. } => positions.len() as u32,
        }
    }

    /// True when nothing is selected.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// True when the positions form one contiguous run (used by the
    /// between-predicate rewriting detector).
    pub fn is_contiguous(&self) -> bool {
        match self {
            PosList::Range { .. } => true,
            _ => {
                let c = self.count();
                c == 0 || {
                    let first = self.first().unwrap();
                    let last = self.last().unwrap();
                    last - first + 1 == c
                }
            }
        }
    }

    /// Smallest selected position.
    pub fn first(&self) -> Option<u32> {
        match self {
            PosList::Range { start, end, .. } => (start < end).then_some(*start),
            PosList::Bitmap { .. } => self.iter().next(),
            PosList::Explicit { positions, .. } => positions.first().copied(),
        }
    }

    /// Largest selected position.
    pub fn last(&self) -> Option<u32> {
        match self {
            PosList::Range { start, end, .. } => (start < end).then_some(end - 1),
            PosList::Bitmap { .. } => self.iter().last(),
            PosList::Explicit { positions, .. } => positions.last().copied(),
        }
    }

    /// Iterate selected positions in ascending order.
    pub fn iter(&self) -> PosIter<'_> {
        match self {
            PosList::Range { start, end, .. } => PosIter::Range(*start..*end),
            PosList::Bitmap { base, bits } => {
                PosIter::Bitmap { words: bits.words().iter(), word: 0, at: base.wrapping_sub(64) }
            }
            PosList::Explicit { positions, .. } => PosIter::Explicit(positions.iter()),
        }
    }

    /// Materialize as an ascending vector.
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().collect()
    }

    /// Intersect two lists over the same window, preserving cheap
    /// representations.
    pub fn intersect(&self, other: &PosList) -> PosList {
        assert_eq!(self.universe(), other.universe(), "position universe mismatch");
        use PosList::*;
        match (self, other) {
            (Range { start: a, end: b, universe }, Range { start: c, end: d, .. }) => {
                let start = (*a).max(*c);
                let end = (*b).min(*d);
                Range { start, end: end.max(start), universe: *universe }
            }
            (Bitmap { base, bits: x }, Bitmap { base: other_base, bits: y }) => {
                assert_eq!(base, other_base, "position window mismatch");
                let mut out = x.clone();
                out.and_with(y);
                Bitmap { base: *base, bits: out }
            }
            (Range { start, end, universe }, Bitmap { base, bits })
            | (Bitmap { base, bits }, Range { start, end, universe }) => {
                // Word-parallel: AND the bitmap's words against the range
                // mask instead of iterating set bits; range if the result
                // is contiguous, bitmap if dense, explicit otherwise.
                if start >= end {
                    return PosList::empty(*universe);
                }
                let (start, end) = (*start - base, *end - base);
                let (fw, lw) = ((start / 64) as usize, ((end - 1) / 64) as usize);
                let mut masked: Vec<u64> = bits.words()[fw..=lw].to_vec();
                masked[0] &= u64::MAX << (start % 64);
                let tail_keep = (end - 1) % 64;
                if tail_keep < 63 {
                    let li = masked.len() - 1;
                    masked[li] &= (1u64 << (tail_keep + 1)) - 1;
                }
                let count: u32 = masked.iter().map(|w| w.count_ones()).sum();
                if count == 0 {
                    return PosList::empty(*universe);
                }
                let (fi, fword) = masked.iter().enumerate().find(|(_, &w)| w != 0).unwrap();
                let first = base + (fw + fi) as u32 * 64 + fword.trailing_zeros();
                let (li, lword) = masked.iter().enumerate().rfind(|(_, &w)| w != 0).unwrap();
                let last = base + (fw + li) as u32 * 64 + 63 - lword.leading_zeros();
                if last - first + 1 == count {
                    return PosList::Range { start: first, end: last + 1, universe: *universe };
                }
                if count > *universe / EXPLICIT_LIMIT_DIVISOR {
                    let mut out = RidBitmap::new(*universe);
                    out.extend_from_words(fw, &masked);
                    return PosList::Bitmap { base: *base, bits: out };
                }
                // Sparse: read the positions straight out of the masked
                // window — no full-window bitmap needed.
                let mut positions = Vec::with_capacity(count as usize);
                for (i, &w) in masked.iter().enumerate() {
                    let mut m = w;
                    while m != 0 {
                        positions.push(base + (fw + i) as u32 * 64 + m.trailing_zeros());
                        m &= m - 1;
                    }
                }
                PosList::Explicit { positions, universe: *universe }
            }
            (Range { start, end, universe }, Explicit { positions, .. })
            | (Explicit { positions, .. }, Range { start, end, universe }) => {
                let out: Vec<u32> = positions
                    .iter()
                    .copied()
                    .skip_while(|p| p < start)
                    .take_while(|p| p < end)
                    .collect();
                PosList::from_ascending(out, *universe)
            }
            (Explicit { positions, universe }, Bitmap { base, bits })
            | (Bitmap { base, bits }, Explicit { positions, universe }) => {
                let out: Vec<u32> =
                    positions.iter().copied().filter(|&p| bits.get(p - base)).collect();
                PosList::from_ascending(out, *universe)
            }
            (Explicit { positions: xs, universe }, Explicit { positions: ys, .. }) => {
                let mut out = Vec::with_capacity(xs.len().min(ys.len()));
                let (mut i, mut j) = (0, 0);
                while i < xs.len() && j < ys.len() {
                    match xs[i].cmp(&ys[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            out.push(xs[i]);
                            i += 1;
                            j += 1;
                        }
                    }
                }
                PosList::from_ascending(out, *universe)
            }
        }
    }
}

/// The ascending positions of a [`PosList`], one representation each — a
/// concrete type, so a gather loop over it pays a match per position, not a
/// virtual call.
#[derive(Debug, Clone)]
pub enum PosIter<'a> {
    /// Every position of a range.
    Range(Range<u32>),
    /// The set bits of a window bitmap.
    Bitmap {
        /// Words not yet loaded.
        words: std::slice::Iter<'a, u64>,
        /// The unvisited bits of the current word.
        word: u64,
        /// Position of the current word's bit 0.
        at: u32,
    },
    /// An explicit list.
    Explicit(std::slice::Iter<'a, u32>),
}

impl Iterator for PosIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        match self {
            PosIter::Range(range) => range.next(),
            PosIter::Bitmap { words, word, at } => {
                while *word == 0 {
                    *word = *words.next()?;
                    *at = at.wrapping_add(64);
                }
                let bit = word.trailing_zeros();
                *word &= *word - 1;
                Some(*at + bit)
            }
            PosIter::Explicit(positions) => positions.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            PosIter::Range(range) => range.size_hint(),
            PosIter::Bitmap { words, word, .. } => {
                let ones = word.count_ones() as usize;
                (ones, Some(ones + words.len() * 64))
            }
            PosIter::Explicit(positions) => positions.size_hint(),
        }
    }

    /// One dispatch per traversal instead of one per position: `for_each`,
    /// `sum`, `count` and friends run a representation's own loop.
    fn fold<B, F: FnMut(B, u32) -> B>(self, init: B, mut f: F) -> B {
        match self {
            PosIter::Range(range) => range.fold(init, f),
            PosIter::Bitmap { mut words, mut word, mut at } => {
                let mut acc = init;
                loop {
                    while word != 0 {
                        acc = f(acc, at + word.trailing_zeros());
                        word &= word - 1;
                    }
                    let Some(&next) = words.next() else { return acc };
                    (word, at) = (next, at.wrapping_add(64));
                }
            }
            PosIter::Explicit(positions) => positions.copied().fold(init, f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn explicit(p: &[u32], n: u32) -> PosList {
        PosList::Explicit { positions: p.to_vec(), universe: n }
    }

    /// Bitmap over the window `[base, base + n)` selecting absolute `p`.
    fn bitmap(base: u32, n: u32, p: &[u32]) -> PosList {
        PosList::Bitmap { base, bits: RidBitmap::from_rids(n, p.iter().map(|p| p - base)) }
    }

    #[test]
    fn basics() {
        let r = PosList::Range { start: 5, end: 10, universe: 100 };
        assert_eq!(r.count(), 5);
        assert_eq!(r.first(), Some(5));
        assert_eq!(r.last(), Some(9));
        assert!(r.is_contiguous());
        assert_eq!(r.to_vec(), vec![5, 6, 7, 8, 9]);
        assert!(PosList::empty(10).is_empty());
        assert_eq!(PosList::all(0..10).count(), 10);
    }

    #[test]
    fn iteration_by_next_and_by_fold_agree_in_every_representation() {
        // Windows starting at 0 and mid-column, bits in the first and last
        // word and none in between, and iterators part-consumed before the
        // fold takes over.
        let (base, n) = (1024u32, 300u32);
        let sets: [Vec<u32>; 3] = [
            vec![base, base + 1, base + 63, base + 64, base + 299],
            (base..base + n).filter(|p| p % 7 == 3).collect(),
            vec![base + 200],
        ];
        for set in &sets {
            for list in
                [bitmap(base, n, set), explicit(set, n), PosList::from_ascending(set.clone(), n)]
            {
                let by_next: Vec<u32> = list.iter().collect();
                assert_eq!(&by_next, set, "{list:?}");
                for skip in 0..set.len() {
                    let mut it = list.iter();
                    it.by_ref().take(skip).for_each(drop);
                    let mut by_fold = Vec::new();
                    it.for_each(|p| by_fold.push(p));
                    assert_eq!(by_fold, set[skip..], "{list:?} after {skip}");
                }
            }
        }
        let run = PosList::Range { start: base, end: base + 5, universe: n };
        assert_eq!(run.iter().fold(0, |acc, p| acc + p - base), 10);
        assert_eq!(bitmap(0, 64, &[]).iter().count(), 0);
    }

    #[test]
    fn from_ascending_detects_ranges() {
        assert!(matches!(
            PosList::from_ascending(vec![3, 4, 5, 6], 100),
            PosList::Range { start: 3, end: 7, .. }
        ));
        assert!(matches!(PosList::from_ascending(vec![3, 5], 100), PosList::Explicit { .. }));
    }

    #[test]
    fn range_range_intersection() {
        let a = PosList::Range { start: 0, end: 10, universe: 100 };
        let b = PosList::Range { start: 5, end: 20, universe: 100 };
        let c = a.intersect(&b);
        assert_eq!(c.to_vec(), (5..10).collect::<Vec<u32>>());
        // Disjoint ranges intersect to empty.
        let d = PosList::Range { start: 50, end: 60, universe: 100 };
        assert!(a.intersect(&d).is_empty());
    }

    #[test]
    fn mixed_intersections_match_set_semantics() {
        let universe = 256u32;
        let xs: Vec<u32> = (0..universe).filter(|p| p % 3 == 0).collect();
        let ys: Vec<u32> = (0..universe).filter(|p| p % 5 == 0).collect();
        let expected: Vec<u32> = (0..universe).filter(|p| p % 15 == 0).collect();
        let reprs_x = [
            PosList::from_ascending(xs.clone(), universe),
            bitmap(0, universe, &xs),
            explicit(&xs, universe),
        ];
        let reprs_y = [
            PosList::from_ascending(ys.clone(), universe),
            bitmap(0, universe, &ys),
            explicit(&ys, universe),
        ];
        for x in &reprs_x {
            for y in &reprs_y {
                assert_eq!(x.intersect(y).to_vec(), expected);
            }
        }
    }

    #[test]
    fn range_bitmap_intersection() {
        let r = PosList::Range { start: 10, end: 20, universe: 64 };
        let bm = bitmap(0, 64, &[5, 10, 15, 25]);
        assert_eq!(r.intersect(&bm).to_vec(), vec![10, 15]);
        assert_eq!(bm.intersect(&r).to_vec(), vec![10, 15]);
    }

    #[test]
    fn morsel_windows_intersect_like_whole_columns() {
        // The same sets, once over [0, 256) and once shifted into the morsel
        // window [1024, 1280): every representation pair must agree, and a
        // morsel's bitmap is sized by the morsel, not by the column.
        let (base, n) = (1024u32, 256u32);
        let xs: Vec<u32> = (base..base + n).filter(|p| p % 3 == 0).collect();
        let ys: Vec<u32> = (base..base + n).filter(|p| p % 5 == 0).collect();
        let expected: Vec<u32> = (base..base + n).filter(|p| p % 15 == 0).collect();
        let window = PosList::all(base..base + n);
        assert_eq!(window.universe(), n);
        for x in [bitmap(base, n, &xs), explicit(&xs, n)] {
            assert_eq!(x.to_vec(), xs);
            for y in [bitmap(base, n, &ys), explicit(&ys, n)] {
                assert_eq!(x.intersect(&y).to_vec(), expected);
            }
            assert_eq!(x.intersect(&window).to_vec(), xs);
            let tail = PosList::Range { start: base + 100, end: base + n, universe: n };
            let want: Vec<u32> = xs.iter().copied().filter(|&p| p >= base + 100).collect();
            assert_eq!(x.intersect(&tail).to_vec(), want);
            assert_eq!(tail.intersect(&x).to_vec(), want);
        }
        let dense: Vec<u32> = (base..base + n).filter(|p| p % 2 == 0).collect();
        let half = PosList::Range { start: base + 64, end: base + 192, universe: n };
        let got = bitmap(base, n, &dense).intersect(&half);
        assert!(matches!(got, PosList::Bitmap { base: 1024, .. }), "dense stays a window bitmap");
        assert_eq!(got.count(), 64);
        assert_eq!((got.first(), got.last()), (Some(base + 64), Some(base + 190)));
    }

    #[test]
    fn contiguity_detection() {
        assert!(explicit(&[4, 5, 6], 100).is_contiguous());
        assert!(!explicit(&[4, 6], 100).is_contiguous());
        assert!(explicit(&[], 100).is_contiguous());
        let bm = bitmap(0, 64, &[7, 8, 9]);
        assert!(bm.is_contiguous());
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn universe_mismatch_panics() {
        PosList::all(0..10).intersect(&PosList::all(0..20));
    }
}
