//! Closed integer intervals — the unit of ProvRC's range encoding.

/// A closed interval `[lo, hi]` of `i64` cell indices (or deltas).
///
/// Invariant: `lo <= hi`. A singleton has `lo == hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl Interval {
    /// `[lo, hi]`, asserting the invariant in debug builds.
    #[inline]
    pub fn new(lo: i64, hi: i64) -> Self {
        debug_assert!(lo <= hi, "interval [{lo}, {hi}] is empty");
        Self { lo, hi }
    }

    /// The singleton `[v, v]`.
    #[inline]
    pub fn point(v: i64) -> Self {
        Self { lo: v, hi: v }
    }

    /// Whether this interval holds exactly one value.
    #[inline]
    pub fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// Number of integers covered.
    #[inline]
    pub fn len(&self) -> u64 {
        (self.hi - self.lo) as u64 + 1
    }

    /// Always false — intervals are non-empty by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `v` lies inside.
    #[inline]
    pub fn contains(&self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Intersection, or `None` when disjoint.
    #[inline]
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Whether the two intervals overlap in at least one integer.
    #[inline]
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Whether the union of the two intervals is a single interval
    /// (overlap or exact adjacency in either direction). Saturating, so an
    /// interval ending at `i64::MAX` does not wrap round to abut `i64::MIN`.
    #[inline]
    pub fn mergeable(&self, other: &Interval) -> bool {
        self.lo <= other.hi.saturating_add(1) && other.lo <= self.hi.saturating_add(1)
    }

    /// Union of two overlapping-or-adjacent intervals.
    #[inline]
    pub fn merge(&self, other: &Interval) -> Interval {
        debug_assert!(self.mergeable(other));
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Shift both endpoints by `delta`.
    #[inline]
    pub fn shift(&self, delta: i64) -> Interval {
        Interval {
            lo: self.lo + delta,
            hi: self.hi + delta,
        }
    }

    /// Minkowski sum: `{ a + d | a ∈ self, d ∈ delta }`, itself an interval.
    ///
    /// This is exactly the paper's `rel_back(t.x, t.xy)` (§V.B.2).
    #[inline]
    pub fn minkowski_sum(&self, delta: &Interval) -> Interval {
        Interval {
            lo: self.lo + delta.lo,
            hi: self.hi + delta.hi,
        }
    }

    /// The anchors `a` whose `[a + delta.lo, a + delta.hi]` meets `self`:
    /// `[lo − delta.hi, hi − delta.lo]`. The inverse of
    /// [`minkowski_sum`](Self::minkowski_sum) that a hop against the stored
    /// orientation reads a relative cell with.
    #[inline]
    pub(crate) fn anchors_meeting(&self, delta: &Interval) -> Interval {
        Interval {
            lo: self.lo - delta.hi,
            hi: self.hi - delta.lo,
        }
    }

    /// Difference interval `{ a − b | a ∈ self, b singleton }` for a point `b`.
    #[inline]
    pub fn sub_point(&self, b: i64) -> Interval {
        Interval {
            lo: self.lo - b,
            hi: self.hi - b,
        }
    }

    /// Iterate the covered integers.
    pub fn iter(&self) -> impl Iterator<Item = i64> {
        self.lo..=self.hi
    }

    /// The interval's two sort-key words: `lo` through [`ord64`], then the
    /// length `hi − lo`, which orders like `hi` among equal `lo`s and is 0
    /// for a point. Exact over the whole `i64` range.
    #[inline]
    pub(crate) fn key_words(self) -> [u64; 2] {
        [
            ord64(self.lo),
            (self.hi as u64).wrapping_sub(self.lo as u64),
        ]
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_point() {
            write!(f, "{}", self.lo)
        } else {
            write!(f, "[{}, {}]", self.lo, self.hi)
        }
    }
}

/// Order-preserving `i64 → u64` map: flips the sign bit so unsigned
/// comparison of the images matches signed comparison of the preimages.
#[inline]
pub(crate) fn ord64(v: i64) -> u64 {
    (v as u64) ^ (1 << 63)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersect_cases() {
        let a = Interval::new(1, 5);
        assert_eq!(a.intersect(&Interval::new(3, 9)), Some(Interval::new(3, 5)));
        assert_eq!(a.intersect(&Interval::new(5, 9)), Some(Interval::point(5)));
        assert_eq!(a.intersect(&Interval::new(6, 9)), None);
        assert_eq!(a.intersect(&a), Some(a));
    }

    #[test]
    fn merge_and_mergeable() {
        let a = Interval::new(1, 3);
        assert!(a.mergeable(&Interval::new(4, 6)));
        assert!(a.mergeable(&Interval::new(2, 6)));
        assert!(a.mergeable(&Interval::new(-2, 0)));
        assert!(!a.mergeable(&Interval::new(5, 6)));
        let top = Interval::new(5, i64::MAX);
        assert!(!top.mergeable(&Interval::point(i64::MIN)));
        assert!(top.mergeable(&Interval::point(4)));
        assert_eq!(a.merge(&Interval::new(4, 6)), Interval::new(1, 6));
        assert_eq!(a.merge(&Interval::new(0, 2)), Interval::new(0, 3));
    }

    #[test]
    fn minkowski_sum_is_rel_back() {
        // Paper Fig. 5 / §V.B.2: b ∈ [1,2] with delta [0,1] covers a ∈ [1,3].
        let b = Interval::new(1, 2);
        let delta = Interval::new(0, 1);
        assert_eq!(b.minkowski_sum(&delta), Interval::new(1, 3));
    }

    #[test]
    fn len_and_contains() {
        let a = Interval::new(-2, 2);
        assert_eq!(a.len(), 5);
        assert!(a.contains(0));
        assert!(!a.contains(3));
    }

    #[test]
    fn ord64_preserves_order() {
        let vals = [i64::MIN, -5, -1, 0, 1, 7, i64::MAX];
        for pair in vals.windows(2) {
            assert!(ord64(pair[0]) < ord64(pair[1]));
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(Interval::point(7).to_string(), "7");
        assert_eq!(Interval::new(1, 4).to_string(), "[1, 4]");
    }
}
