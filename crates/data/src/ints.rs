//! Integer columns at their byte width.
//!
//! [`PlainInts`] holds a column's values as `u8`, `u16`, `u32` or `i64`: the
//! narrowest byte-aligned width they fit, the width a compressing column
//! store charges and persists a plain column at. The generator's logical
//! tables, the column store's plain encoding and a reloaded snapshot all
//! hold this one type.
//!
//! [`PlainInts::push`] starts at `u8` and widens by one copy when a value
//! needs it, so a column built value by value never exists at a wider width
//! than its values need. Loops over a whole column hoist the width dispatch
//! with [`with_plain_values!`](crate::with_plain_values): one monomorphic
//! copy of the loop per width, no `match` per value.

/// A value type a column is held at: `u8`/`u16`/`u32` for widths 1, 2 and 4
/// (non-negative by construction), `i64` for width 8.
pub trait PlainValue: Copy + Ord {
    /// Smallest value of the type.
    const MIN: Self;
    /// Largest value of the type.
    const MAX: Self;
    /// The logical value.
    fn widen(self) -> i64;
    /// `v` at this width; `None` when it does not fit.
    fn narrow(v: i64) -> Option<Self>;
    /// `values` as the [`PlainInts`] variant of this width.
    fn ints(values: Vec<Self>) -> PlainInts;
}

macro_rules! plain_value {
    ($($t:ty => $variant:ident),*) => {$(
        impl PlainValue for $t {
            const MIN: $t = <$t>::MIN;
            const MAX: $t = <$t>::MAX;
            #[inline]
            fn widen(self) -> i64 {
                self as i64
            }
            #[inline]
            fn narrow(v: i64) -> Option<$t> {
                <$t>::try_from(v).ok()
            }
            fn ints(values: Vec<$t>) -> PlainInts {
                PlainInts::$variant(values)
            }
        }
    )*};
}
plain_value!(u8 => U8, u16 => U16, u32 => U32, i64 => I64);

/// An integer column's values at one byte width.
///
/// Equality is structural: the same values at two widths differ. Compare
/// values with [`PlainInts::values_eq`] (what
/// [`ColumnData`](crate::table::ColumnData)'s equality does).
#[derive(Debug, Clone, PartialEq)]
pub enum PlainInts {
    /// Width 1.
    U8(Vec<u8>),
    /// Width 2.
    U16(Vec<u16>),
    /// Width 4.
    U32(Vec<u32>),
    /// Width 8 (the only width that holds negative values).
    I64(Vec<i64>),
}

/// Evaluate `$body` with `$values` bound to the typed `Vec` of a
/// [`PlainInts`]: one monomorphic copy of the body per width, the dispatch
/// hoisted out of whatever loop the body runs.
#[macro_export]
macro_rules! with_plain_values {
    ($plain:expr, |$values:ident| $body:expr) => {
        match $plain {
            $crate::ints::PlainInts::U8($values) => $body,
            $crate::ints::PlainInts::U16($values) => $body,
            $crate::ints::PlainInts::U32($values) => $body,
            $crate::ints::PlainInts::I64($values) => $body,
        }
    };
}

impl Default for PlainInts {
    fn default() -> PlainInts {
        PlainInts::new()
    }
}

impl PlainInts {
    /// An empty column at width 1.
    pub fn new() -> PlainInts {
        PlainInts::U8(Vec::new())
    }

    /// An empty column at width 1 with room for `values` values.
    pub fn with_capacity(values: usize) -> PlainInts {
        PlainInts::U8(Vec::with_capacity(values))
    }

    /// `values` at `width` bytes each (1, 2, 4 or 8). Panics when a value
    /// does not fit: callers size `width` from the values.
    pub fn from_values<T: PlainValue>(values: &[T], width: u8) -> PlainInts {
        PlainInts::with_room(values, width, values.len())
    }

    /// [`PlainInts::from_values`] with room for `capacity` values.
    fn with_room<T: PlainValue>(values: &[T], width: u8, capacity: usize) -> PlainInts {
        fn narrowed<T: PlainValue, U: PlainValue>(values: &[T], capacity: usize) -> PlainInts {
            let mut out = Vec::with_capacity(capacity.max(values.len()));
            out.extend(values.iter().map(|&v| {
                let v = v.widen();
                U::narrow(v).unwrap_or_else(|| panic!("{v} exceeds the plain width"))
            }));
            U::ints(out)
        }
        match width {
            1 => narrowed::<T, u8>(values, capacity),
            2 => narrowed::<T, u16>(values, capacity),
            4 => narrowed::<T, u32>(values, capacity),
            8 => narrowed::<T, i64>(values, capacity),
            _ => panic!("invalid plain width {width}"),
        }
    }

    /// Bytes per value: 1, 2, 4 or 8.
    pub fn width(&self) -> u8 {
        match self {
            PlainInts::U8(_) => 1,
            PlainInts::U16(_) => 2,
            PlainInts::U32(_) => 4,
            PlainInts::I64(_) => 8,
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        with_plain_values!(self, |v| v.len())
    }

    /// True when there are no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value `i`. Loops that read many values should hoist the width
    /// dispatch with [`with_plain_values!`](crate::with_plain_values).
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        with_plain_values!(self, |v| v[i].widen())
    }

    /// Append `v`, first widening the column by one copy when `v` does not
    /// fit its width.
    #[inline]
    pub fn push(&mut self, v: i64) {
        let fits = match self {
            PlainInts::U8(x) => u8::narrow(v).map(|n| x.push(n)).is_some(),
            PlainInts::U16(x) => u16::narrow(v).map(|n| x.push(n)).is_some(),
            PlainInts::U32(x) => u32::narrow(v).map(|n| x.push(n)).is_some(),
            PlainInts::I64(x) => {
                x.push(v);
                true
            }
        };
        if !fits {
            self.widen_to_hold(v);
            self.push(v);
        }
    }

    /// Re-hold the values at the narrowest width that also holds `v`,
    /// keeping the capacity.
    #[cold]
    fn widen_to_hold(&mut self, v: i64) {
        let width = width_for(v.min(0), v.max(0)).max(self.width());
        let capacity = with_plain_values!(&*self, |x| x.capacity());
        *self = with_plain_values!(&*self, |x| PlainInts::with_room(x, width, capacity));
    }

    /// Every value, widened.
    pub fn decode(&self) -> Vec<i64> {
        with_plain_values!(self, |v| v.iter().map(|x| x.widen()).collect())
    }

    /// Smallest and largest value; `None` when empty.
    pub fn min_max(&self) -> Option<(i64, i64)> {
        with_plain_values!(self, |v| min_max(v).map(|(lo, hi)| (lo.widen(), hi.widen())))
    }

    /// The narrowest width that holds every value ([`byte_width`]).
    pub fn narrowest_width(&self) -> u8 {
        with_plain_values!(self, |v| byte_width(v))
    }

    /// The values at `width` bytes each; no copy when that is the column's
    /// width. Panics when a value does not fit.
    pub fn into_width(self, width: u8) -> PlainInts {
        if width == self.width() {
            return self;
        }
        with_plain_values!(&self, |v| PlainInts::from_values(v, width))
    }

    /// The values at `positions`, in that order, at this column's width.
    pub fn gather(&self, positions: &[u32]) -> PlainInts {
        with_plain_values!(self, |v| PlainValue::ints(
            positions.iter().map(|&p| v[p as usize]).collect()
        ))
    }

    /// True when both columns hold the same values in the same order,
    /// whatever their widths.
    pub fn values_eq(&self, other: &PlainInts) -> bool {
        with_plain_values!(self, |a| with_plain_values!(other, |b| a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| x.widen() == y.widen())))
    }
}

impl From<Vec<i64>> for PlainInts {
    /// `values` at the narrowest width that holds them (no copy when that
    /// is 8 bytes).
    fn from(values: Vec<i64>) -> PlainInts {
        let width = byte_width(&values);
        PlainInts::I64(values).into_width(width)
    }
}

impl FromIterator<i64> for PlainInts {
    fn from_iter<I: IntoIterator<Item = i64>>(values: I) -> PlainInts {
        let values = values.into_iter();
        let mut out = PlainInts::with_capacity(values.size_hint().0);
        for v in values {
            out.push(v);
        }
        out
    }
}

/// Smallest and largest of `values`; `None` when empty.
pub fn min_max<T: PlainValue>(values: &[T]) -> Option<(T, T)> {
    let (&first, rest) = values.split_first()?;
    Some(rest.iter().fold((first, first), |(lo, hi), &v| (lo.min(v), hi.max(v))))
}

/// Minimal byte width (1/2/4/8) holding every value. Negative values force 8.
pub fn byte_width<T: PlainValue>(values: &[T]) -> u8 {
    let (min, max) = min_max(values).map_or((0, 0), |(lo, hi)| (lo.widen(), hi.widen()));
    width_for(min, max)
}

/// [`byte_width`] of values spanning `[min, max]`.
pub fn width_for(min: i64, max: i64) -> u8 {
    if min < 0 {
        8
    } else if max < 1 << 8 {
        1
    } else if max < 1 << 16 {
        2
    } else if max < 1 << 32 {
        4
    } else {
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every read of `ints` against the `Vec<i64>` it should hold.
    fn assert_holds(ints: &PlainInts, want: &[i64]) {
        assert_eq!(ints.len(), want.len());
        assert_eq!(ints.is_empty(), want.is_empty());
        for (i, &v) in want.iter().enumerate() {
            assert_eq!(ints.get(i), v, "value {i}");
        }
        let mut looped = Vec::new();
        with_plain_values!(ints, |values| looped.extend(values.iter().map(|v| v.widen())));
        assert_eq!(looped, want);
        assert_eq!(ints.decode(), want);
        assert_eq!(ints.min_max(), min_max(want));
        assert_eq!(ints.width(), byte_width(want), "held at the narrowest width");
    }

    #[test]
    fn push_widens_across_every_width_boundary() {
        // Each pair: the last value of a width, then the first that needs
        // the next one.
        let steps: [(i64, u8); 8] = [
            (255, 1),
            (256, 2),
            (65_535, 2),
            (65_536, 4),
            (u32::MAX as i64, 4),
            (u32::MAX as i64 + 1, 8),
            (7, 8),
            (-1, 8),
        ];
        let mut ints = PlainInts::with_capacity(4);
        let mut want = vec![0i64, 3];
        ints.push(0);
        ints.push(3);
        assert_eq!(ints.width(), 1);
        for (v, width) in steps {
            ints.push(v);
            want.push(v);
            assert_eq!(ints.width(), width, "after pushing {v}");
            assert_holds(&ints, &want);
        }
    }

    #[test]
    fn a_negative_value_widens_a_byte_column_to_i64() {
        let mut ints: PlainInts = [1, 2, 3].into_iter().collect();
        assert_eq!(ints.width(), 1);
        ints.push(-5);
        assert_eq!(ints, PlainInts::I64(vec![1, 2, 3, -5]));
        assert_holds(&ints, &[1, 2, 3, -5]);
    }

    #[test]
    fn conversions_pick_the_narrowest_width() {
        for (values, width) in [
            (vec![], 1),
            (vec![0, 255], 1),
            (vec![0, 256], 2),
            (vec![65_536], 4),
            (vec![1 << 40], 8),
            (vec![i64::MIN, i64::MAX], 8),
        ] {
            let collected: PlainInts = values.iter().copied().collect();
            let converted = PlainInts::from(values.clone());
            assert_eq!(collected, converted, "{values:?}");
            assert_eq!(converted.width(), width, "{values:?}");
            assert_holds(&converted, &values);
        }
    }

    #[test]
    fn gather_keeps_the_width_and_equality_ignores_it() {
        let want: Vec<i64> = (0..300).map(|i| i * 37 % 1_000).collect();
        let ints = PlainInts::from(want.clone());
        assert_eq!(ints.width(), 2);
        let positions: Vec<u32> = (0..300u32).rev().step_by(3).collect();
        let gathered = ints.gather(&positions);
        assert_eq!(gathered.width(), 2);
        let picked: Vec<i64> = positions.iter().map(|&p| want[p as usize]).collect();
        assert_eq!(gathered.decode(), picked);
        // Only small values: a narrower column of the same values.
        let small: Vec<u32> = (0..300u32).filter(|&p| want[p as usize] < 256).collect();
        let gathered = ints.gather(&small);
        let narrow: PlainInts = small.iter().map(|&p| want[p as usize]).collect();
        assert_eq!((gathered.width(), narrow.width()), (2, 1));
        assert_ne!(gathered, narrow);
        assert!(gathered.values_eq(&narrow) && narrow.values_eq(&gathered));
        assert!(!gathered.values_eq(&narrow.gather(&[0])));
        assert!(!ints.values_eq(&PlainInts::from(picked)));
    }

    #[test]
    fn into_width_copies_only_across_widths() {
        let ints = PlainInts::from(vec![1, 2, 300]);
        assert_eq!(ints.clone().into_width(2), ints);
        let wide = ints.clone().into_width(8);
        assert_eq!(wide, PlainInts::I64(vec![1, 2, 300]));
        assert!(wide.values_eq(&ints));
        assert_eq!(PlainInts::from_values(&[1u8, 2], 4), PlainInts::U32(vec![1, 2]));
    }

    #[test]
    #[should_panic(expected = "exceeds the plain width")]
    fn into_a_width_too_narrow_panics() {
        PlainInts::from(vec![1, 300]).into_width(1);
    }

    #[test]
    fn byte_width_minimized() {
        assert_eq!(byte_width(&[0i64, 200]), 1);
        assert_eq!(byte_width(&[0i64, 60_000]), 2);
        assert_eq!(byte_width(&[0i64, 20_000_000]), 4);
        assert_eq!(byte_width(&[0i64, 1 << 40]), 8);
        assert_eq!(byte_width(&[-1i64]), 8);
        assert_eq!(byte_width::<i64>(&[]), 1);
        assert_eq!(byte_width(&[300u16]), 2);
    }
}
