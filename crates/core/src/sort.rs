//! The one row sort in core. ProvRC's passes (§IV), the §V.B.3 merge and
//! the θ-join's interval index all order rows through [`KeySort`].
//!
//! A caller gives `n` rows as key words, most significant first, each an
//! order-preserving `u64` per row, in columns of up to four words that one
//! sweep of the rows yields ([`Words`]). The kernel drops the words
//! that are constant over the rows, range-reduces the rest to the bits
//! they span, and packs them most significant first into one integer key
//! per row, with the row id in the low bits: a `u64`, or a `u128` when
//! they need more than 64 bits. Integer order is then word-vector order,
//! ties broken by row id, so the order depends on the keys alone.
//!
//! * Keys that already ascend are not sorted: one O(n) check comes first.
//! * Keys whose words span at most 64 bits radix-sort (LSD over those
//!   bits; stable, so ties stay in row order) at or above [`RADIX_MIN`]
//!   rows. Other keys, and fewer rows, comparison-sort.
//! * Past 128 bits, which takes coordinates spread across the `i64` range,
//!   or past [`MAX_PACKED`] varying words, the words that fit pack into
//!   the `u128` and the rest are kept beside it, compared only when the
//!   packed words tie. This path has to be right, not fast: no benchmark
//!   workload reaches it.

use std::ops::{BitAnd, BitOr, BitXor, Not, Shl, Shr};

/// Comparison-sort below this many rows; radix-sort at or above it.
const RADIX_MIN: usize = 1 << 13;

/// At most this many words pack into a key. A key of more words that vary
/// keeps the rest beside it, as past 128 bits.
const MAX_PACKED: usize = 16;

/// Rows' key words, most significant first: each word an order-preserving
/// `u64` per row. The words come in columns of one to four, read together.
pub(crate) trait Words {
    /// The number of words in column `col`, 1 to 4.
    fn width(&self, col: usize) -> usize;

    /// Feed each row's words of column `col`, in row order, to `f`. Words
    /// past the column's width are ignored.
    fn each(&self, col: usize, f: impl FnMut([u64; 4]));
}

/// A word that packs into the key: the minimum subtracted before packing,
/// its column and place in it, and the bits its range spans.
#[derive(Debug, Clone, Copy)]
struct Kept {
    min: u64,
    col: u32,
    sub: u8,
    bits: u8,
}

/// Sorts rows by packed key words, and keeps the buffers for the next sort.
/// The packing plan lives inline, so only the keys allocate, unless words
/// outgrow the key or rows reach [`RADIX_MIN`].
#[derive(Debug)]
pub(crate) struct KeySort {
    /// The words that pack, in word order: `kept[..packed]`.
    kept: [Kept; MAX_PACKED],
    packed: usize,
    /// The words that vary past the packed ones, in word order, as
    /// `(column, place)`.
    rest_words: Vec<(usize, usize)>,
    /// Bits of the row id under the packed words.
    row_bits: u32,
    /// The sorted keys: keys of up to 64 bits in `narrow`, wider ones in
    /// `wide`. The other is empty.
    narrow: Vec<u64>,
    wide: Vec<u128>,
    /// The `rest_words` values, row-major by row id.
    rest: Vec<u64>,
    /// Radix-sort scratch.
    narrow_tmp: Vec<u64>,
    wide_tmp: Vec<u128>,
    counts: Vec<u32>,
}

impl Default for KeySort {
    fn default() -> Self {
        let unused = Kept {
            min: 0,
            col: 0,
            sub: 0,
            bits: 0,
        };
        KeySort {
            kept: [unused; MAX_PACKED],
            packed: 0,
            rest_words: Vec::new(),
            row_bits: 0,
            narrow: Vec::new(),
            wide: Vec::new(),
            rest: Vec::new(),
            narrow_tmp: Vec::new(),
            wide_tmp: Vec::new(),
            counts: Vec::new(),
        }
    }
}

impl KeySort {
    /// Sort rows `0..n` by the key words of `words`' first `cols` columns.
    pub(crate) fn sort(&mut self, n: usize, cols: usize, words: &impl Words) {
        self.row_bits = u64::BITS - (n.saturating_sub(1) as u64).leading_zeros();
        self.packed = 0;
        self.rest_words.clear();
        let mut bits = 0;
        for col in 0..cols {
            let (mut min, mut max) = ([u64::MAX; 4], [0; 4]);
            words.each(col, |row| {
                for i in 0..4 {
                    min[i] = min[i].min(row[i]);
                    max[i] = max[i].max(row[i]);
                }
            });
            for sub in (0..words.width(col)).filter(|&sub| max[sub] > min[sub]) {
                let span = u64::BITS - (max[sub] - min[sub]).leading_zeros();
                let fits = self.packed < MAX_PACKED && self.row_bits + bits + span <= 128;
                if self.rest_words.is_empty() && fits {
                    self.kept[self.packed] = Kept {
                        min: min[sub],
                        col: col as u32,
                        sub: sub as u8,
                        bits: span as u8,
                    };
                    self.packed += 1;
                    bits += span;
                } else {
                    self.rest_words.push((col, sub));
                }
            }
        }
        let (kept, row_bits) = (&self.kept[..self.packed], self.row_bits);
        if row_bits + bits <= 64 && self.rest_words.is_empty() {
            self.wide.clear();
            fill(&mut self.narrow, n, kept, row_bits, words);
            sort_keys(
                &mut self.narrow,
                &mut self.narrow_tmp,
                &mut self.counts,
                row_bits,
                bits,
            );
            return;
        }
        self.narrow.clear();
        fill(&mut self.wide, n, kept, row_bits, words);
        if self.rest_words.is_empty() {
            sort_keys(
                &mut self.wide,
                &mut self.wide_tmp,
                &mut self.counts,
                row_bits,
                bits,
            );
            return;
        }
        let stride = self.rest_words.len();
        self.rest.clear();
        self.rest.resize(n * stride, 0);
        for (i, &(col, sub)) in self.rest_words.iter().enumerate() {
            let mut slots = self.rest.iter_mut().skip(i).step_by(stride);
            words.each(col, |row| {
                if let Some(slot) = slots.next() {
                    *slot = row[sub];
                }
            });
        }
        let rest = |key: u128| &self.rest[row_of(key, row_bits) as usize * stride..][..stride];
        let cmp = |a: &u128, b: &u128| {
            (a >> row_bits)
                .cmp(&(b >> row_bits))
                .then_with(|| rest(*a).cmp(rest(*b)))
                .then(a.cmp(b))
        };
        if !self.wide.windows(2).all(|p| cmp(&p[0], &p[1]).is_le()) {
            self.wide.sort_unstable_by(cmp);
        }
    }

    /// The rows in sorted order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = u32> + '_ {
        let row_bits = self.row_bits;
        let wide = self.wide.iter().map(move |&key| row_of(key, row_bits));
        self.narrow
            .iter()
            .map(move |&key| row_of(key, row_bits))
            .chain(wide)
    }

    /// Feed the rows in sorted order to `f(row, same)`: `same` says whether
    /// the row agrees with the one before it on columns `0..g`.
    pub(crate) fn walk(&self, g: usize, mut f: impl FnMut(u32, bool)) {
        // Packed words of columns at or past `g` take the bits above the
        // row id; the rest words come after the packed ones, so those
        // before `g` lead a row.
        let kept = &self.kept[..self.packed];
        let low: u32 = kept
            .iter()
            .filter(|k| k.col as usize >= g)
            .map(|k| u32::from(k.bits))
            .sum();
        let shift = self.row_bits + low;
        walk_keys(&self.narrow, self.row_bits, shift, |_, _| true, &mut f);
        let stride = self.rest_words.len();
        let rest_g = self.rest_words.iter().filter(|&&(col, _)| col < g).count();
        let rest = |row: u32| &self.rest[row as usize * stride..][..rest_g];
        walk_keys(
            &self.wide,
            self.row_bits,
            shift,
            |a, b| rest(a) == rest(b),
            &mut f,
        );
    }

    /// Move the rows of `data` (`width` items each) into the sorted order
    /// in place, by a walk of the permutation's cycles. Spends the sort: a
    /// position is marked placed by pointing its key at itself.
    pub(crate) fn permute<T>(&mut self, data: &mut [T], width: usize) {
        walk_cycles(&mut self.narrow, self.row_bits, data, width);
        walk_cycles(&mut self.wide, self.row_bits, data, width);
    }
}

/// A packed key: `u64` or `u128`.
trait Key:
    Copy
    + Ord
    + From<u64>
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + Not<Output = Self>
    + Shl<u32, Output = Self>
    + Shr<u32, Output = Self>
{
    const BITS: u32;

    /// The low 64 bits.
    fn low64(self) -> u64;
}

impl Key for u64 {
    const BITS: u32 = u64::BITS;

    fn low64(self) -> u64 {
        self
    }
}

impl Key for u128 {
    const BITS: u32 = u128::BITS;

    fn low64(self) -> u64 {
        self as u64
    }
}

/// The row id in `key`'s low `row_bits` bits.
#[inline]
fn row_of<K: Key>(key: K, row_bits: u32) -> u32 {
    (key.low64() & !(u64::MAX << row_bits)) as u32
}

/// Fill `keys` with one key per row of `words`: the `kept` words,
/// range-reduced and packed most significant first above the row id.
/// One sweep of the rows per column.
fn fill<K: Key>(keys: &mut Vec<K>, n: usize, kept: &[Kept], row_bits: u32, words: &impl Words) {
    keys.clear();
    keys.extend((0..n as u64).map(K::from));
    let mut off = row_bits + kept.iter().map(|k| u32::from(k.bits)).sum::<u32>();
    for column in kept.chunk_by(|a, b| a.col == b.col) {
        // `(place, min, shift)` of each of the column's kept words.
        let mut at = [(0, 0, 0); 4];
        for (slot, k) in at.iter_mut().zip(column) {
            off -= u32::from(k.bits);
            *slot = (usize::from(k.sub), k.min, off);
        }
        let at = &at[..column.len()];
        let mut keys = keys.iter_mut();
        words.each(column[0].col as usize, |row| {
            if let Some(key) = keys.next() {
                for &(sub, min, shift) in at {
                    *key = *key | K::from(row[sub] - min) << shift;
                }
            }
        });
    }
}

/// Sort `keys`, which are unique: nothing when they ascend; a radix sort
/// over the `bits` of words above the row id when those fit 64 and there
/// are at least [`RADIX_MIN`] keys; a comparison sort otherwise.
fn sort_keys<K: Key>(
    keys: &mut Vec<K>,
    tmp: &mut Vec<K>,
    counts: &mut Vec<u32>,
    row_bits: u32,
    bits: u32,
) {
    if keys.windows(2).all(|p| p[0] <= p[1]) {
        return;
    }
    if keys.len() < RADIX_MIN || bits > 64 {
        keys.sort_unstable();
    } else {
        radix_sort(keys, tmp, counts, row_bits, bits);
    }
}

/// Stable LSD radix sort of `keys` by their bits `row_bits..row_bits +
/// bits`, with digits sized to make the fewest passes of ≤ 2^18 buckets.
/// The keys start in row order, so keys with equal words stay in it.
fn radix_sort<K: Key>(
    keys: &mut Vec<K>,
    tmp: &mut Vec<K>,
    counts: &mut Vec<u32>,
    row_bits: u32,
    bits: u32,
) {
    let passes = bits.div_ceil(18).max(1);
    let digit = bits.div_ceil(passes);
    let mask = (1u64 << digit) - 1;
    let bucket = |key: K, shift: u32| ((key >> shift).low64() & mask) as usize;
    counts.clear();
    counts.resize(1 << digit, 0);
    tmp.clear();
    tmp.resize(keys.len(), K::from(0));
    let mut shift = row_bits;
    while shift < row_bits + bits {
        counts.fill(0);
        for &key in keys.iter() {
            counts[bucket(key, shift)] += 1;
        }
        let mut sum = 0;
        for c in counts.iter_mut() {
            let v = *c;
            *c = sum;
            sum += v;
        }
        for &key in keys.iter() {
            let b = bucket(key, shift);
            tmp[counts[b] as usize] = key;
            counts[b] += 1;
        }
        std::mem::swap(keys, tmp);
        shift += digit;
    }
}

/// Feed `keys`' rows, in order, to `f(row, same)`: `same` when the key
/// agrees with the one before it from bit `shift` up and `same_rest` holds
/// for the two rows.
fn walk_keys<K: Key>(
    keys: &[K],
    row_bits: u32,
    shift: u32,
    same_rest: impl Fn(u32, u32) -> bool,
    f: &mut impl FnMut(u32, bool),
) {
    let Some((&first, tail)) = keys.split_first() else {
        return;
    };
    f(row_of(first, row_bits), false);
    let mut prev = first;
    for &key in tail {
        let (a, b) = (row_of(prev, row_bits), row_of(key, row_bits));
        let same_words = shift >= K::BITS || (prev ^ key) >> shift == K::from(0);
        f(b, same_words && same_rest(a, b));
        prev = key;
    }
}

/// Apply `keys`' order to `data`'s rows in place: position `j` takes the
/// row in key `j`'s low `row_bits` bits, and a placed position's key is
/// pointed at itself.
fn walk_cycles<K: Key, T>(keys: &mut [K], row_bits: u32, data: &mut [T], width: usize) {
    let words = !K::from(0) << row_bits;
    for start in 0..keys.len() {
        let mut j = start;
        loop {
            let from = row_of(keys[j], row_bits) as usize;
            if from == j {
                break;
            }
            keys[j] = keys[j] & words | K::from(j as u64);
            if from == start {
                break;
            }
            let (a, b) = (j.min(from) * width, j.max(from) * width);
            let (head, tail) = data.split_at_mut(b);
            head[a..a + width].swap_with_slice(&mut tail[..width]);
            j = from;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl KeySort {
        /// Bits the packed words span, row id aside.
        pub(crate) fn key_bits(&self) -> u32 {
            self.kept[..self.packed]
                .iter()
                .map(|k| u32::from(k.bits))
                .sum()
        }
    }

    /// `n` rows of `w` words, row-major, in columns of two words (the last
    /// may have one).
    struct Rows {
        w: usize,
        vals: Vec<u64>,
    }

    impl Rows {
        fn row(&self, r: usize) -> &[u64] {
            &self.vals[r * self.w..][..self.w]
        }

        fn columns(&self) -> usize {
            self.w.div_ceil(2)
        }
    }

    impl Words for Rows {
        fn width(&self, col: usize) -> usize {
            (self.w - 2 * col).min(2)
        }

        fn each(&self, col: usize, mut f: impl FnMut([u64; 4])) {
            for r in 0..self.vals.len() / self.w {
                let row = self.row(r);
                f([
                    row[2 * col],
                    row.get(2 * col + 1).copied().unwrap_or(0),
                    0,
                    0,
                ]);
            }
        }
    }

    /// Deterministic pseudo-random values.
    fn lcg(n: usize, modulus: u64) -> Vec<u64> {
        let mut state = 0x2545F4914F6CDD1Du64;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % modulus
            })
            .collect()
    }

    /// The order the kernel must give: by the words, ties by row id.
    fn naive(rows: &Rows, n: usize) -> Vec<u32> {
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&r| (rows.row(r as usize), r));
        order
    }

    /// Sort `rows` and check the order, every group prefix and the
    /// in-place permutation against the naive sort.
    fn check(rows: &Rows, n: usize, what: &str) {
        let mut keys = KeySort::default();
        keys.sort(n, rows.columns(), rows);
        let expect = naive(rows, n);
        assert_eq!(keys.rows().collect::<Vec<_>>(), expect, "{what}");
        for g in 0..=rows.columns() {
            let (mut t, words) = (0, (2 * g).min(rows.w));
            keys.walk(g, |row, same| {
                assert_eq!(row, expect[t], "{what}: walk at {t}");
                let prev = expect[t.max(1) - 1] as usize;
                let want = t > 0 && rows.row(prev)[..words] == rows.row(row as usize)[..words];
                assert_eq!(same, want, "{what}: prefix {g} at {t}");
                t += 1;
            });
            assert_eq!(t, n, "{what}: walk length");
        }
        let mut data = rows.vals.clone();
        keys.permute(&mut data, rows.w);
        let permuted: Vec<u64> = expect
            .iter()
            .flat_map(|&r| rows.row(r as usize).to_vec())
            .collect();
        assert_eq!(data, permuted, "{what}: permute");
    }

    /// One key word's values over `n` rows.
    #[derive(Debug, Clone, Copy)]
    enum Word {
        /// The same value on every row.
        Const,
        /// Spans exactly this many bits: random, or (`ties`) only four
        /// values, so most rows tie on it.
        Bits { bits: u32, ties: bool },
        /// `ord64` of `i64::MIN`, `-1`, `0`, `1` and `i64::MAX`.
        Extremes,
    }

    fn values(word: Word, n: usize, seed: u64) -> Vec<u64> {
        let rand = lcg(n + seed as usize, u64::MAX).split_off(seed as usize);
        match word {
            Word::Const => vec![0xDEAD_BEEF; n],
            Word::Bits { bits, ties } => {
                let top = u64::MAX >> (64 - bits);
                let base = 0x5555_5555_5555_5555 & !top;
                (0..n)
                    .map(|r| match r {
                        0 => base,
                        1 => base + top,
                        _ if ties => base + [0, top / 3, top / 3 * 2, top][(rand[r] % 4) as usize],
                        _ => base + ((rand[r] << 31 ^ rand[r] << 7 ^ rand[r]) & top),
                    })
                    .collect()
            }
            Word::Extremes => {
                let pick = [i64::MIN, -1, 0, 1, i64::MAX];
                (0..n)
                    .map(|r| crate::interval::ord64(pick[(rand[r] % 5) as usize]))
                    .collect()
            }
        }
    }

    #[test]
    fn kernel_equals_the_naive_sort() {
        use Word::*;
        let narrow = |bits| Bits { bits, ties: false };
        let tied = |bits| Bits { bits, ties: true };
        // Keys of 0, 63, 64, 65, 66, 128, 129 and 192 bits: the `u64`, the
        // `u128` and the past-128-bit paths, with constant words between;
        // and more words than pack.
        let many = [tied(1); MAX_PACKED + 8];
        let keys: [&[Word]; 9] = [
            &[Const],
            &[narrow(63)],
            &[Const, tied(64)],
            &[tied(33), Const, narrow(32)],
            &[Extremes, tied(2)],
            &[tied(64), narrow(64)],
            &[tied(64), Const, tied(64), narrow(1)],
            &[Extremes, Extremes, Extremes],
            &many,
        ];
        for words in keys {
            for n in [0, 1, 2, RADIX_MIN - 1, RADIX_MIN, 3 * RADIX_MIN] {
                let w = words.len();
                let columns: Vec<Vec<u64>> =
                    (0..w).map(|i| values(words[i], n, i as u64)).collect();
                let vals = (0..n * w).map(|x| columns[x % w][x / w]).collect();
                check(&Rows { w, vals }, n, &format!("{words:?}, n = {n}"));
            }
        }
    }

    #[test]
    fn radix_sort_matches_comparison_sort() {
        for n in [1usize, 5, 300, 9000] {
            for bits in [13u32, 34, 63] {
                let rows = Rows {
                    w: 1,
                    vals: lcg(n, 1u64 << bits),
                };
                check(&rows, n, &format!("n={n} bits={bits}"));
            }
        }
    }

    #[test]
    fn sorted_input_short_circuits() {
        for n in [100u64, 3 * RADIX_MIN as u64] {
            let rows = Rows {
                w: 1,
                vals: (0..n).map(|i| i * 3).collect(),
            };
            let mut keys = KeySort::default();
            keys.sort(n as usize, rows.columns(), &rows);
            assert!(keys.rows().eq(0..n as u32));
            assert_eq!(keys.narrow_tmp.capacity(), 0, "no radix pass ran");
        }
    }
}
