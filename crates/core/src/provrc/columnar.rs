//! The columnar ProvRC pipeline: the only one the library runs.
//!
//! Same pass structure — and pass-for-pass *identical output* — as the
//! row-of-structs reference in `dslog-oracle`'s `provrc` module (called
//! "the ablation" below; parity is pinned by the `provrc_fast_parity`
//! property suite), but engineered for ingest throughput:
//!
//! * **Columnar arena.** The working set lives struct-of-arrays: one
//!   `Vec<Interval>` per primary attribute, one `Vec<WCell>` per secondary
//!   attribute, double-buffered so a pass writes merged rows into reusable
//!   scratch columns. No per-row heap allocations (the reference's row
//!   struct carries two) and no pointer chasing inside comparators.
//! * **Bit-packed sort keys.** Every pass's conceptual sort key is a fixed
//!   vector of order-preserving `u64` words (sign-flipped `i64`s). A
//!   column-major stats sweep finds the words that actually vary (constant
//!   words and words row-wise equal to their predecessor — e.g. `hi == lo`
//!   for point intervals — are dropped; both eliminations provably
//!   preserve the comparator), then the surviving words are range-reduced
//!   and bit-packed. Real passes almost always fit 64 or 128 bits, so a
//!   comparison never touches a key buffer, let alone a per-cell key
//!   function.
//! * **The input, read in place.** Rows that arrive strictly ascending
//!   (as capture paths and regular generators emit them) are not copied:
//!   a pass whose order `LineageTable`'s row-major data already has is one
//!   sweep over adjacent rows that checks the order and finds the runs —
//!   no stats, packed keys, sort or run list. A pass that merges writes
//!   the arena already folded, one row per run; one that merges nothing
//!   writes nothing. The first pass that needs a sort builds the arena
//!   from the input, and every later pass runs packed, as below.
//! * **Proven no-op passes.** On the input every cell is a point, so two
//!   rows merge in a pass only if one is the other plus a fixed vector Δ:
//!   `e_k` for step 1 on secondary `k`, `e_j + Σ_{i∈mask} e_{sec i}` for
//!   step 2 on primary `j` (a masked word is `s_i − t`). Adding Δ keeps
//!   the rows ascending, so a pass the input is out of order for is
//!   first tried as one merge of the rows against themselves shifted; if
//!   no row meets another, the pass is skipped and the input stays in
//!   place. Only the last pass's order is observable: the latest skipped
//!   pass is owed, and runs for real at the end unless another pass ran
//!   after it — one sort, not one per pass.
//! * **Radix sort.** Keys packed into a `u64` sort with a linear LSD radix
//!   sort (`(key, row id)` pairs, stable, hence deterministic); an O(n)
//!   pre-check skips sorting when the packed keys are already in order.
//!   Wider keys fall back to a comparison sort.
//! * **Mask pruning.** A rel-mask bit is *live* only if some active row has
//!   a still-absolute cell in that column *and* a singleton target
//!   attribute — otherwise toggling it provably cannot change the pass's
//!   comparator or its conversions. Masks are projected onto the live bits
//!   and a projection that already ran on the current row set (no merges
//!   since) is skipped: the skipped pass is guaranteed to be a no-op, so
//!   the output stays exactly the ablation's.
//! * **Zero-copy no-op passes.** A pass that merges nothing rewrites
//!   neither the view nor the arena: row order is irrelevant to later
//!   passes (each re-sorts, and distinct rows never compare equal). On the
//!   view the physical order already is the pass's order, or the pass is
//!   owed (above); on the arena only the final pass's permutation is
//!   remembered and applied when the table is materialized.
//!
//! One compression runs on the calling thread: an in-pass parallel sort
//! and a run-chunked scan were measured slower on every shape from 20 k to
//! 1 M rows and removed; threads enter one level up, across relations and
//! orientations (`super::compress_batch_parallel_opts`).

use crate::interval::{ord64, Interval};
use crate::table::{Cell, CompressedTable, LineageTable, Orientation};
use std::cmp::Ordering;

/// A secondary attribute cell during compression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WCell {
    /// Absolute interval.
    Abs(Interval),
    /// Relative to primary attribute `anchor`: value set is `prim[anchor] + delta`.
    Rel { anchor: u8, delta: Interval },
}

/// The rel-choice bitmasks to try for `n_abs` absolute secondary
/// attributes. Full enumeration up to 2^6; beyond that, a heuristic subset
/// (all-rel, all-abs, single-attr masks and their complements) keeps the
/// pass count linear while covering the patterns arising in practice.
///
/// The mask lists are built once per process and cached per `n_abs` —
/// `primary_passes` runs once per primary attribute of every compressed
/// relation, and re-allocating and popcount-sorting up to 64 masks on each
/// call showed up in capture-path profiles.
fn masks_for(n_abs: usize) -> &'static [u64] {
    static CACHE: std::sync::OnceLock<Vec<Vec<u64>>> = std::sync::OnceLock::new();
    let cache = CACHE.get_or_init(|| (0..=63).map(build_masks).collect());
    // Masks are single `u64`s, so ≥ 64 still-absolute attributes clamp to
    // the widest representable heuristic list.
    &cache[n_abs.min(63)]
}

/// The most sorting passes [`compress`] makes over a relation with these
/// arities: one per secondary attribute, then one per rel-choice mask per
/// primary attribute. A row costs about this many sorts, which makes it the
/// batch compressor's per-row estimate of a job's work.
pub(super) fn pass_count(prim_arity: usize, sec_arity: usize) -> usize {
    sec_arity + prim_arity * masks_for(sec_arity).len()
}

fn build_masks(n_abs: usize) -> Vec<u64> {
    if n_abs == 0 {
        return vec![0];
    }
    if n_abs <= 6 {
        // Descending popcount: prefer turning attributes relative, which is
        // what one-to-one/convolution/matmul patterns need, then fall back.
        let mut masks: Vec<u64> = (0..(1u64 << n_abs)).collect();
        masks.sort_by_key(|m| std::cmp::Reverse(m.count_ones()));
        masks
    } else {
        let all = (1u64 << n_abs) - 1;
        let mut masks = vec![all];
        for i in 0..n_abs {
            masks.push(all & !(1 << i));
        }
        for i in 0..n_abs {
            masks.push(1 << i);
        }
        masks.push(0);
        masks
    }
}

/// Comparison-sort pairs below this row count; radix-sort at or above it.
const RADIX_MIN: usize = 1 << 13;

/// An in-progress merge run over the sorted permutation: `first` is the row
/// whose cells seed the output row, `hi` the accumulated end of the target
/// interval, `merged` whether ≥ 2 rows were absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    first: u32,
    hi: i64,
    merged: bool,
}

/// Compress with the columnar pipeline.
pub(super) fn compress(
    table: &LineageTable,
    out_shape: &[usize],
    in_shape: &[usize],
    orientation: Orientation,
) -> CompressedTable {
    let (prim_arity, sec_arity) = match orientation {
        Orientation::Backward => (table.out_arity(), table.in_arity()),
        Orientation::Forward => (table.in_arity(), table.out_arity()),
    };
    let mut arena = Arena::new(table, orientation, prim_arity, sec_arity);
    // Step 1: multi-attribute range encoding over secondary attributes,
    // last attribute first (paper: a_m, …, a_1).
    for k in (0..sec_arity).rev() {
        arena.secondary_pass(k);
    }
    // Step 2: relative transformation + range encoding over primary
    // attributes, last attribute first (paper: b_l, …, b_1). Attribute 0
    // runs last: its final pass fixes the output row order.
    for j in (0..prim_arity).rev() {
        arena.primary_passes(j, j == 0);
    }
    arena.into_table(orientation, out_shape, in_shape)
}

/// Running min/max of one key word plus whether it equals the previous
/// word of the same cell on every row (in which case it carries no extra
/// ordering information and is dropped from the packed key).
#[derive(Debug, Clone, Copy)]
struct WordStat {
    min: u64,
    max: u64,
    eq_prev: bool,
}

impl WordStat {
    const EMPTY: WordStat = WordStat {
        min: u64::MAX,
        max: 0,
        eq_prev: false,
    };

    #[inline]
    fn update(&mut self, v: u64) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

/// One surviving key word in the packed representation.
#[derive(Debug, Clone, Copy)]
struct KeptWord {
    /// Index in the pass's conceptual word vector.
    word: usize,
    /// Bit width of `max − min`.
    width: u32,
    /// Subtracted before packing.
    min: u64,
}

/// How the current pass's keys are represented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyMode {
    /// All surviving words fit 64 packed bits.
    Packed64,
    /// All surviving words fit 128 packed bits.
    Packed128,
    /// Wider: full word vectors with prefix-accelerated comparisons.
    Wide,
}

/// Pack layout decided from the word stats.
struct Plan {
    mode: KeyMode,
    /// Packed bits of the surviving *target* words (they pack last, i.e.
    /// into the low bits, so the group prefix is a right shift away).
    target_bits: u32,
    /// Total packed bits (`Packed64` / `Packed128` only).
    total_bits: u32,
}

/// The four packed key words of a step-1 cell: absolute cells sort before
/// relative ones.
#[inline]
fn cell_key_words(cell: WCell) -> [u64; 4] {
    match cell {
        WCell::Abs(ivl) => [0, ord64(ivl.lo), ord64(ivl.hi), 0],
        WCell::Rel { anchor, delta } => [1, u64::from(anchor), ord64(delta.lo), ord64(delta.hi)],
    }
}

/// The four packed key words of a step-2 cell under a rel-mask bit. The
/// tag word keeps distinct representations from comparing equal: 0 abs,
/// 1 abs-by-delta (point target), 2 abs kept absolute under an interval
/// target (never converted), 3 already relative, by `(anchor, delta)`.
#[inline]
fn sec_key_words(cell: WCell, want_rel: bool, prim_j: Interval) -> [u64; 4] {
    match cell {
        WCell::Abs(ivl) => {
            if want_rel {
                if prim_j.is_point() {
                    [1, ord64(ivl.lo - prim_j.lo), ord64(ivl.hi - prim_j.lo), 0]
                } else {
                    [2, ord64(ivl.lo), ord64(ivl.hi), 0]
                }
            } else {
                [0, ord64(ivl.lo), ord64(ivl.hi), 0]
            }
        }
        WCell::Rel { anchor, delta } => [3, u64::from(anchor), ord64(delta.lo), ord64(delta.hi)],
    }
}

/// The input relation read in place: row-major and strictly ascending
/// (so already set-normalized), every cell an absolute point.
#[derive(Clone, Copy)]
struct View<'a> {
    raw: &'a [i64],
    arity: usize,
    /// Row offset of the first primary / secondary attribute.
    prim_off: usize,
    sec_off: usize,
}

impl View<'_> {
    #[inline]
    fn row(&self, r: usize) -> &[i64] {
        &self.raw[r * self.arity..(r + 1) * self.arity]
    }

    /// How row `r` follows row `r − 1` in the order of a pass keyed by
    /// the `group` words, then the target column `t`. A group word is a
    /// row column, minus the target column when flagged (a masked step-2
    /// word). `None`: the rows are out of the pass's order. Otherwise
    /// whether row `r` extends row `r − 1`'s run: same group, target one
    /// higher.
    #[inline]
    fn step(&self, r: usize, group: &[(usize, bool)], t: usize) -> Option<bool> {
        let (a, b) = (self.row(r - 1), self.row(r));
        let word =
            |row: &[i64], (c, rel): (usize, bool)| if rel { row[c] - row[t] } else { row[c] };
        for &w in group {
            match word(a, w).cmp(&word(b, w)) {
                Ordering::Less => return Some(false),
                Ordering::Greater => return None,
                Ordering::Equal => {}
            }
        }
        (a[t] < b[t]).then(|| a[t] + 1 == b[t])
    }

    /// Whether some of the first `n` rows plus `shift` (one entry per
    /// column) is also a row: one merge of the ascending rows against
    /// themselves shifted, which ascend too. A row whose shift overflows
    /// has no partner.
    fn meets_shifted(&self, n: usize, shift: &[i64]) -> bool {
        let cmp = |a: &[i64], b: &[i64]| {
            for ((&x, &y), &d) in a.iter().zip(b).zip(shift) {
                match y.checked_add(d).map_or(Ordering::Less, |y| x.cmp(&y)) {
                    Ordering::Equal => {}
                    unequal => return unequal,
                }
            }
            Ordering::Equal
        };
        let (mut a, mut b) = (0, 0);
        while a < n && b < n {
            match cmp(self.row(a), self.row(b)) {
                Ordering::Less => a += 1,
                Ordering::Greater => b += 1,
                Ordering::Equal => return true,
            }
        }
        false
    }
}

/// One range-encoding pass: step 1 on a secondary attribute, or step 2 on
/// a primary attribute under a rel-mask.
#[derive(Debug, Clone, Copy)]
enum Pass {
    Secondary(usize),
    Primary(usize, u64),
}

/// The double-buffered columnar working set plus every pass's scratch
/// buffers, allocated once and reused across all `O(64 × prim_arity)`
/// mask passes of a compression.
struct Arena<'a> {
    prim_arity: usize,
    sec_arity: usize,
    /// Active row count; all column vectors have this length.
    n: usize,
    /// While set, the working set is still the input itself: no pass has
    /// merged or needed a sort yet, and the columns below are empty.
    view: Option<View<'a>>,
    /// A view pass's group words (see [`View::step`]).
    group: Vec<(usize, bool)>,
    /// A view pass's Δ (see [`View::meets_shifted`]).
    shift: Vec<i64>,
    /// The latest pass skipped on the view as a proven no-op, unless a
    /// pass ran after it: its order is the output's.
    owed: Option<Pass>,
    /// `prim[k][r]` is row `r`'s primary attribute `k`.
    prim: Vec<Vec<Interval>>,
    /// `sec[k][r]` is row `r`'s secondary attribute `k`.
    sec: Vec<Vec<WCell>>,
    prim_next: Vec<Vec<Interval>>,
    sec_next: Vec<Vec<WCell>>,
    /// Per-word stats of the current pass.
    stats: Vec<WordStat>,
    /// Surviving words of the current pass, in word order.
    kept: Vec<KeptWord>,
    /// `(packed key, row id)` pairs for the `Packed64` mode.
    pairs64: Vec<(u64, u32)>,
    pairs64_tmp: Vec<(u64, u32)>,
    /// `(packed key, row id)` pairs for the `Packed128` mode.
    pairs128: Vec<(u128, u32)>,
    /// Radix-sort bucket counters.
    counts: Vec<u32>,
    /// Full key words (`Wide` mode only), `w` per row.
    wide_keys: Vec<u64>,
    wide_sort: Vec<(u128, u32)>,
    runs: Vec<Run>,
    /// Sorted order of the most recent pass when that pass skipped
    /// materialization (zero merges); the arena columns are then still in
    /// the previous order and the final table emission applies this.
    last_perm: Vec<u32>,
    last_perm_valid: bool,
}

impl<'a> Arena<'a> {
    /// The working set of `table`: the table itself when its rows are
    /// strictly ascending, else the arena built through the sorted-unique
    /// permutation, which folds normalization (set semantics) into the
    /// column build without materializing a normalized copy.
    fn new(
        table: &'a LineageTable,
        orientation: Orientation,
        prim_arity: usize,
        sec_arity: usize,
    ) -> Arena<'a> {
        let (prim_off, sec_off) = match orientation {
            Orientation::Backward => (0, table.out_arity()),
            Orientation::Forward => (table.out_arity(), 0),
        };
        let view = View {
            raw: table.raw(),
            arity: table.arity(),
            prim_off,
            sec_off,
        };
        let already_sorted_unique = (1..table.n_rows()).all(|r| view.row(r - 1) < view.row(r));
        let mut arena = Arena {
            prim_arity,
            sec_arity,
            n: table.n_rows(),
            view: Some(view),
            group: Vec::new(),
            shift: Vec::new(),
            owed: None,
            prim: vec![Vec::new(); prim_arity],
            sec: vec![Vec::new(); sec_arity],
            prim_next: vec![Vec::new(); prim_arity],
            sec_next: vec![Vec::new(); sec_arity],
            stats: Vec::new(),
            kept: Vec::new(),
            pairs64: Vec::new(),
            pairs64_tmp: Vec::new(),
            pairs128: Vec::new(),
            counts: Vec::new(),
            wide_keys: Vec::new(),
            wide_sort: Vec::new(),
            runs: Vec::new(),
            last_perm: Vec::new(),
            last_perm_valid: false,
        };
        if !already_sorted_unique {
            let order = table.sorted_unique_row_perm();
            arena.build(order.iter().map(|&r| r as usize));
        }
        arena
    }

    /// Build the arena from the view's rows `rows`, in that order: the
    /// sorted-unique permutation of an unsorted input, or every row when a
    /// pass needs a sort. Leaves view mode.
    fn build(&mut self, rows: impl ExactSizeIterator<Item = usize>) {
        let Some(view) = self.view.take() else { return };
        self.n = rows.len();
        self.reserve(self.n);
        for r in rows {
            let row = view.row(r);
            self.push_row(&view, row, 0, row[0], None);
        }
    }

    /// Run a pass on the view when the view is already in its order (see
    /// [`View::step`] for `self.group` and `t`): one sweep checks the order
    /// and counts the runs, and only a pass that merges sweeps again to
    /// write the folded arena, one row per run. In a step-2 pass on
    /// primary attribute `j`, a merged run's masked secondary cells become
    /// relative to `j`. A pass the view is out of order for is skipped,
    /// and owed, when no row plus its Δ is a row. Returns
    /// `false`, having touched nothing, when the pass needs a sort.
    fn view_pass(&mut self, t: usize, pass: Pass) -> bool {
        let Some(view) = self.view else { return false };
        let n = self.n;
        let mut runs = 1;
        for r in 1..n {
            match view.step(r, &self.group, t) {
                Some(extends) => runs += usize::from(!extends),
                None => {
                    self.shift.clear();
                    self.shift.resize(view.arity, 0);
                    self.shift[t] = 1;
                    for &(c, rel) in &self.group {
                        self.shift[c] = i64::from(rel);
                    }
                    let skip = !view.meets_shifted(n, &self.shift);
                    self.owed = skip.then_some(pass);
                    return skip;
                }
            }
        }
        self.owed = None;
        let rel = match pass {
            Pass::Primary(j, mask) => Some((j, mask)),
            Pass::Secondary(_) => None,
        };
        if runs == n {
            return true;
        }
        self.reserve(runs);
        let mut start = 0;
        for r in 1..=n {
            if r < n && view.step(r, &self.group, t) == Some(true) {
                continue;
            }
            let (row, hi) = (view.row(start), view.row(r - 1)[t]);
            self.push_row(&view, row, t, hi, rel.filter(|_| r - start > 1));
            start = r;
        }
        self.n = runs;
        self.view = None;
        true
    }

    fn reserve(&mut self, rows: usize) {
        self.prim.iter_mut().for_each(|col| col.reserve_exact(rows));
        self.sec.iter_mut().for_each(|col| col.reserve_exact(rows));
    }

    /// Append the arena row of view row `row` heading a run whose target
    /// column `t` ends at `hi` (a row of its own: `hi == row[t]`). With
    /// `rel = Some((j, mask))`, masked secondary cells become relative to
    /// primary attribute `j`.
    fn push_row(&mut self, view: &View, row: &[i64], t: usize, hi: i64, rel: Option<(usize, u64)>) {
        let cell = |c: usize| Interval::new(row[c], if c == t { hi } else { row[c] });
        for (p, col) in self.prim.iter_mut().enumerate() {
            col.push(cell(view.prim_off + p));
        }
        for (i, col) in self.sec.iter_mut().enumerate() {
            let c = view.sec_off + i;
            col.push(match rel {
                Some((j, mask)) if mask & (1 << i) != 0 => WCell::Rel {
                    anchor: j as u8,
                    delta: Interval::point(row[c] - row[t]),
                },
                _ => WCell::Abs(cell(c)),
            });
        }
    }

    /// Decide the key representation from `self.stats`. Words are dropped
    /// when constant (`min == max`) or row-wise equal to their predecessor;
    /// neither can change any comparison: the first word on which two rows
    /// differ is always kept (a dropped word's value is determined by an
    /// earlier word). Survivors are range-reduced to `max − min` and
    /// packed most-significant-first, so packed-integer order equals
    /// word-vector order.
    fn build_plan(&mut self, w: usize, target_words: usize) -> Plan {
        self.kept.clear();
        let mut total: u32 = 0;
        let mut target: u32 = 0;
        for (i, s) in self.stats.iter().enumerate() {
            if s.max <= s.min || s.eq_prev {
                continue;
            }
            let width = 64 - (s.max - s.min).leading_zeros();
            self.kept.push(KeptWord {
                word: i,
                width,
                min: s.min,
            });
            total = total.saturating_add(width);
            if i >= w - target_words {
                target += width;
            }
        }
        let mode = if total <= 64 {
            KeyMode::Packed64
        } else if total <= 128 {
            KeyMode::Packed128
        } else {
            KeyMode::Wide
        };
        Plan {
            mode,
            target_bits: target,
            total_bits: total,
        }
    }

    /// Step-1 pass on secondary attribute `k`: sort by (all primary
    /// attributes, all secondary attributes except `k`, then `k`) and merge
    /// exactly-concatenating absolute runs on `k`.
    fn secondary_pass(&mut self, k: usize) {
        if self.n <= 1 {
            return;
        }
        if let Some(view) = self.view {
            self.group.clear();
            let prim = (0..self.prim_arity).map(|p| (view.prim_off + p, false));
            let sec = (0..self.sec_arity).filter(|&i| i != k);
            self.group
                .extend(prim.chain(sec.map(|i| (view.sec_off + i, false))));
            if self.view_pass(view.sec_off + k, Pass::Secondary(k)) {
                return;
            }
            self.build(0..self.n);
        }
        let w = 2 * self.prim_arity + 4 * self.sec_arity;

        // Column-major stats sweep in pass word order.
        self.stats.clear();
        for col in &self.prim {
            push_prim_stats(&mut self.stats, col);
        }
        for i in sec_order(self.sec_arity, k) {
            push_cell_stats(&mut self.stats, &self.sec[i]);
        }
        let plan = self.build_plan(w, 4);

        let n = self.n;
        let (prim_arity, sec_arity) = (self.prim_arity, self.sec_arity);
        {
            let Self {
                prim,
                sec,
                kept,
                pairs64,
                pairs64_tmp,
                pairs128,
                counts,
                wide_keys,
                wide_sort,
                ..
            } = self;
            let source =
                |word: usize| word_source_secondary(prim, sec, prim_arity, sec_arity, word, k);
            match plan.mode {
                KeyMode::Packed64 => {
                    pack_columns_u64(pairs64, n, kept, plan.total_bits, source);
                    sort_pairs_u64(pairs64, pairs64_tmp, counts, plan.total_bits);
                }
                KeyMode::Packed128 => {
                    pack_columns_u128(pairs128, n, kept, plan.total_bits, source);
                    sort_pairs_u128(pairs128);
                }
                KeyMode::Wide => {
                    wide_keys.clear();
                    wide_keys.reserve(n * w);
                    for r in 0..n {
                        for col in prim.iter() {
                            let ivl = col[r];
                            wide_keys.push(ord64(ivl.lo));
                            wide_keys.push(ord64(ivl.hi));
                        }
                        for i in sec_order(sec_arity, k) {
                            wide_keys.extend_from_slice(&cell_key_words(sec[i][r]));
                        }
                    }
                    sort_wide(wide_sort, wide_keys, w, n);
                }
            }
        }

        let sec_k = &self.sec[k];
        let init_hi = |first: u32| match sec_k[first as usize] {
            WCell::Abs(ivl) => ivl.hi,
            // A relative cell never extends; the accumulator is unused.
            WCell::Rel { .. } => i64::MIN,
        };
        let extend =
            |first: u32, hi: i64, cur: u32| match (sec_k[first as usize], sec_k[cur as usize]) {
                (WCell::Abs(_), WCell::Abs(c)) if hi + 1 == c.lo => Some(c.hi),
                _ => None,
            };
        scan_by_mode(
            plan.mode,
            &self.pairs64,
            &self.pairs128,
            &self.wide_sort,
            &self.wide_keys,
            w,
            w - 4,
            plan.target_bits,
            &mut self.runs,
            init_hi,
            extend,
        );

        if self.runs.len() == self.n {
            // Zero merges: keep the arena untouched (order is irrelevant to
            // later passes) and remember the sorted order for emission.
            self.record_perm(plan.mode);
            return;
        }

        // Materialize the runs column-major into the scratch columns.
        let runs = &self.runs;
        for (col, next) in self.prim.iter().zip(self.prim_next.iter_mut()) {
            next.clear();
            next.extend(runs.iter().map(|run| col[run.first as usize]));
        }
        for (i, (col, next)) in self.sec.iter().zip(self.sec_next.iter_mut()).enumerate() {
            next.clear();
            if i == k {
                next.extend(runs.iter().map(|run| {
                    let cell = col[run.first as usize];
                    match cell {
                        WCell::Abs(ivl) if run.merged => WCell::Abs(Interval::new(ivl.lo, run.hi)),
                        _ => cell,
                    }
                }));
            } else {
                next.extend(runs.iter().map(|run| col[run.first as usize]));
            }
        }
        self.n = self.runs.len();
        std::mem::swap(&mut self.prim, &mut self.prim_next);
        std::mem::swap(&mut self.sec, &mut self.sec_next);
        self.last_perm_valid = false;
    }

    /// Bit `i` of the result is set iff toggling rel-mask bit `i` can
    /// change a pass on primary attribute `j`: some active row must hold a
    /// still-absolute cell in secondary column `i` *and* a singleton target
    /// attribute (otherwise the toggle flips key tags `0 ↔ 2` uniformly,
    /// which alters no comparison outcome and enables no conversion).
    fn live_mask(&self, j: usize) -> u64 {
        if self.view.is_some() {
            // Every view cell is absolute and every target a point.
            return (0..self.sec_arity.min(64)).fold(0, |live, i| live | 1 << i);
        }
        let pj = &self.prim[j];
        let mut live = 0u64;
        for (i, col) in self.sec.iter().enumerate().take(64) {
            let bit = col
                .iter()
                .zip(pj.iter())
                .any(|(c, p)| matches!(c, WCell::Abs(_)) && p.is_point());
            if bit {
                live |= 1u64 << i;
            }
        }
        live
    }

    /// Run the combo passes for primary attribute `j`, skipping masks whose
    /// live-bit projection already ran on the current row set with zero
    /// merges (a guaranteed no-op; see [`Self::live_mask`]).
    ///
    /// With `finalize_order` (the last primary attribute), the ablation's
    /// trailing all-absolute pass (mask 0) — whose sort fixes the output
    /// row order — is re-run if the last executed pass used a different
    /// comparator class. With the full ≤ 2^6 mask enumeration, projection
    /// 0 is provably the last *new* projection, so this never fires; it
    /// defends the row-order invariant against the > 6-attribute heuristic
    /// list, where singleton masks enumerate after the first all-absolute
    /// projection.
    fn primary_passes(&mut self, j: usize, finalize_order: bool) {
        let masks = masks_for(self.sec_arity);
        let mut live = self.live_mask(j);
        let mut tried: Vec<u64> = Vec::new();
        let mut last_proj: Option<u64> = None;
        for &mask in masks {
            if self.n <= 1 {
                break;
            }
            let proj = mask & live;
            if tried.contains(&proj) {
                continue;
            }
            let before = self.n;
            self.primary_pass(j, proj);
            last_proj = Some(proj);
            if self.n < before {
                // Merges (and their abs → rel conversions) changed the row
                // set: previously no-op projections may be productive now.
                tried.clear();
                live = self.live_mask(j);
            } else {
                tried.push(proj);
            }
        }
        if finalize_order && self.n > 1 && last_proj != Some(0) {
            // Merge-wise a guaranteed no-op (projection 0 is in `tried`),
            // but it re-establishes the ablation's final row order.
            self.primary_pass(j, 0);
        }
    }

    /// Step-2 pass on primary attribute `j` under rel-mask `mask`: sort by
    /// (other primary attributes, masked secondary keys, then `j`) and
    /// merge exactly-concatenating runs, converting masked absolute cells
    /// of point-anchored runs into relative ones.
    fn primary_pass(&mut self, j: usize, mask: u64) {
        if self.n <= 1 {
            return;
        }
        if let Some(view) = self.view {
            self.group.clear();
            let prim = (0..self.prim_arity).filter(|&p| p != j);
            let sec = (0..self.sec_arity).map(|i| (view.sec_off + i, mask & (1 << i) != 0));
            self.group
                .extend(prim.map(|p| (view.prim_off + p, false)).chain(sec));
            if self.view_pass(view.prim_off + j, Pass::Primary(j, mask)) {
                return;
            }
            self.build(0..self.n);
        }
        let w = 2 * (self.prim_arity - 1) + 4 * self.sec_arity + 2;

        self.stats.clear();
        for (p, col) in self.prim.iter().enumerate() {
            if p != j {
                push_prim_stats(&mut self.stats, col);
            }
        }
        {
            let pj = &self.prim[j];
            for (i, col) in self.sec.iter().enumerate() {
                let want_rel = mask & (1 << i) != 0;
                push_sec_stats(&mut self.stats, col, pj, want_rel);
            }
            push_prim_stats(&mut self.stats, pj);
        }
        let plan = self.build_plan(w, 2);

        let n = self.n;
        let prim_arity = self.prim_arity;
        {
            let Self {
                prim,
                sec,
                kept,
                pairs64,
                pairs64_tmp,
                pairs128,
                counts,
                wide_keys,
                wide_sort,
                ..
            } = self;
            let source = |word: usize| word_source_primary(prim, sec, prim_arity, word, j, mask);
            match plan.mode {
                KeyMode::Packed64 => {
                    pack_columns_u64(pairs64, n, kept, plan.total_bits, source);
                    sort_pairs_u64(pairs64, pairs64_tmp, counts, plan.total_bits);
                }
                KeyMode::Packed128 => {
                    pack_columns_u128(pairs128, n, kept, plan.total_bits, source);
                    sort_pairs_u128(pairs128);
                }
                KeyMode::Wide => {
                    let pj_col = &prim[j];
                    wide_keys.clear();
                    wide_keys.reserve(n * w);
                    for r in 0..n {
                        for (p, col) in prim.iter().enumerate() {
                            if p != j {
                                let ivl = col[r];
                                wide_keys.push(ord64(ivl.lo));
                                wide_keys.push(ord64(ivl.hi));
                            }
                        }
                        let pj = pj_col[r];
                        for (i, col) in sec.iter().enumerate() {
                            let want_rel = mask & (1 << i) != 0;
                            wide_keys.extend_from_slice(&sec_key_words(col[r], want_rel, pj));
                        }
                        wide_keys.push(ord64(pj.lo));
                        wide_keys.push(ord64(pj.hi));
                    }
                    sort_wide(wide_sort, wide_keys, w, n);
                }
            }
        }

        let prim_j = &self.prim[j];
        let init_hi = |first: u32| prim_j[first as usize].hi;
        let extend = |_first: u32, hi: i64, cur: u32| {
            let p = prim_j[cur as usize];
            (hi + 1 == p.lo).then_some(p.hi)
        };
        scan_by_mode(
            plan.mode,
            &self.pairs64,
            &self.pairs128,
            &self.wide_sort,
            &self.wide_keys,
            w,
            w - 2,
            plan.target_bits,
            &mut self.runs,
            init_hi,
            extend,
        );

        if self.runs.len() == self.n {
            self.record_perm(plan.mode);
            return;
        }

        let runs = &self.runs;
        for (p, (col, next)) in self.prim.iter().zip(self.prim_next.iter_mut()).enumerate() {
            next.clear();
            if p == j {
                next.extend(
                    runs.iter()
                        .map(|run| Interval::new(col[run.first as usize].lo, run.hi)),
                );
            } else {
                next.extend(runs.iter().map(|run| col[run.first as usize]));
            }
        }
        // Masked cells compared by delta only when the run's first target
        // attribute was a point; interval-anchored runs compared absolutely
        // and must stay absolute.
        let pj_col = &self.prim[j];
        for (i, (col, next)) in self.sec.iter().zip(self.sec_next.iter_mut()).enumerate() {
            next.clear();
            if mask & (1 << i) != 0 {
                next.extend(runs.iter().map(|run| {
                    let r = run.first as usize;
                    let cell = col[r];
                    let pj = pj_col[r];
                    match cell {
                        WCell::Abs(ivl) if run.merged && pj.is_point() => WCell::Rel {
                            anchor: j as u8,
                            delta: ivl.sub_point(pj.lo),
                        },
                        _ => cell,
                    }
                }));
            } else {
                next.extend(runs.iter().map(|run| col[run.first as usize]));
            }
        }
        self.n = self.runs.len();
        std::mem::swap(&mut self.prim, &mut self.prim_next);
        std::mem::swap(&mut self.sec, &mut self.sec_next);
        self.last_perm_valid = false;
    }

    /// Remember the most recent sort order after a zero-merge pass.
    fn record_perm(&mut self, mode: KeyMode) {
        self.last_perm.clear();
        match mode {
            KeyMode::Packed64 => self.last_perm.extend(self.pairs64.iter().map(|p| p.1)),
            KeyMode::Packed128 => self.last_perm.extend(self.pairs128.iter().map(|p| p.1)),
            KeyMode::Wide => self.last_perm.extend(self.wide_sort.iter().map(|p| p.1)),
        }
        self.last_perm_valid = true;
    }

    /// Materialize the final columns as a [`CompressedTable`], applying the
    /// pending permutation of a trailing zero-merge pass if any (a view
    /// that no pass folded is in its final order once the owed pass, if
    /// any, has sorted it).
    fn into_table(
        mut self,
        orientation: Orientation,
        out_shape: &[usize],
        in_shape: &[usize],
    ) -> CompressedTable {
        let owed = self.owed.take();
        self.build(0..self.n);
        match owed {
            Some(Pass::Secondary(k)) => self.secondary_pass(k),
            Some(Pass::Primary(j, mask)) => self.primary_pass(j, mask),
            None => {}
        }
        // Attribute extents, in the table's primary-then-secondary order.
        let (prim_shape, sec_shape) = match orientation {
            Orientation::Backward => (out_shape, in_shape),
            Orientation::Forward => (in_shape, out_shape),
        };
        let extents = prim_shape.iter().chain(sec_shape).map(|&d| d as i64);
        let perm: Option<&[u32]> = self.last_perm_valid.then_some(&self.last_perm[..]);
        let mut columns: Vec<Vec<Cell>> = Vec::with_capacity(self.prim_arity + self.sec_arity);
        for col in &self.prim {
            columns.push(match perm {
                Some(p) => p.iter().map(|&r| Cell::Abs(col[r as usize])).collect(),
                None => col.iter().map(|&ivl| Cell::Abs(ivl)).collect(),
            });
        }
        let to_cell = |c: WCell| match c {
            WCell::Abs(ivl) => Cell::Abs(ivl),
            WCell::Rel { anchor, delta } => Cell::Rel { anchor, delta },
        };
        for col in &self.sec {
            columns.push(match perm {
                Some(p) => p.iter().map(|&r| to_cell(col[r as usize])).collect(),
                None => col.iter().map(|&c| to_cell(c)).collect(),
            });
        }
        CompressedTable::from_columns(
            orientation,
            self.prim_arity,
            self.sec_arity,
            extents.collect(),
            columns,
            0, // `WCell` has no symbolic variant
        )
    }
}

/// Secondary-pass column order: every attribute except `k`, then `k`.
fn sec_order(sec_arity: usize, k: usize) -> impl Iterator<Item = usize> {
    (0..sec_arity).filter(move |&i| i != k).chain([k])
}

/// The per-row values of conceptual word `word` for the secondary pass
/// on `k` (word order: primary `(lo, hi)` pairs, then `cell_key` words of
/// every secondary attribute except `k`, then `k`'s).
fn word_source_secondary<'a>(
    prim: &'a [Vec<Interval>],
    sec: &'a [Vec<WCell>],
    prim_arity: usize,
    sec_arity: usize,
    word: usize,
    k: usize,
) -> WordFill<'a> {
    let pa2 = 2 * prim_arity;
    if word < pa2 {
        WordFill::Prim {
            col: &prim[word / 2],
            hi: word % 2 == 1,
        }
    } else {
        // `sec_order`'s slot `slot`: `k` last, the others in order.
        let slot = (word - pa2) / 4;
        let col = if slot + 1 == sec_arity {
            k
        } else {
            slot + usize::from(slot >= k)
        };
        WordFill::CellKey {
            col: &sec[col],
            sub: (word - pa2) % 4,
        }
    }
}

/// The per-row values of conceptual word `word` for the primary pass on
/// `j` under `mask` (word order: other primary `(lo, hi)` pairs, then
/// masked `sec_key` words of every secondary attribute, then `j`'s pair).
fn word_source_primary<'a>(
    prim: &'a [Vec<Interval>],
    sec: &'a [Vec<WCell>],
    prim_arity: usize,
    word: usize,
    j: usize,
    mask: u64,
) -> WordFill<'a> {
    let other = 2 * (prim_arity - 1);
    if word < other {
        // The primary attributes other than `j`, in order.
        let slot = word / 2;
        WordFill::Prim {
            col: &prim[slot + usize::from(slot >= j)],
            hi: word % 2 == 1,
        }
    } else if word < other + 4 * sec.len() {
        let slot = (word - other) / 4;
        let sub = (word - other) % 4;
        WordFill::SecKey {
            col: &sec[slot],
            prim_j: &prim[j],
            want_rel: mask & (1 << slot) != 0,
            sub,
        }
    } else {
        WordFill::Prim {
            col: &prim[j],
            hi: (word - other - 4 * sec.len()) == 1,
        }
    }
}

/// Where a conceptual key word's per-row values come from.
enum WordFill<'a> {
    Prim {
        col: &'a [Interval],
        hi: bool,
    },
    /// Step-1 `cell_key` word `sub` of a secondary column.
    CellKey {
        col: &'a [WCell],
        sub: usize,
    },
    /// Step-2 `sec_key` word `sub` of a secondary column.
    SecKey {
        col: &'a [WCell],
        prim_j: &'a [Interval],
        want_rel: bool,
        sub: usize,
    },
}

impl WordFill<'_> {
    /// Feed each row's word value, in row order, to `f(row, value)`.
    #[inline]
    fn for_each(&self, mut f: impl FnMut(usize, u64)) {
        match self {
            WordFill::Prim { col, hi } => {
                if *hi {
                    for (r, ivl) in col.iter().enumerate() {
                        f(r, ord64(ivl.hi));
                    }
                } else {
                    for (r, ivl) in col.iter().enumerate() {
                        f(r, ord64(ivl.lo));
                    }
                }
            }
            WordFill::CellKey { col, sub } => {
                for (r, &cell) in col.iter().enumerate() {
                    f(r, cell_key_words(cell)[*sub]);
                }
            }
            WordFill::SecKey {
                col,
                prim_j,
                want_rel,
                sub,
            } => {
                for (r, (&cell, &pj)) in col.iter().zip(prim_j.iter()).enumerate() {
                    f(r, sec_key_words(cell, *want_rel, pj)[*sub]);
                }
            }
        }
    }
}

/// Stats for one primary column's `(lo, hi)` word pair.
fn push_prim_stats(stats: &mut Vec<WordStat>, col: &[Interval]) {
    let mut lo = WordStat::EMPTY;
    let mut hi = WordStat::EMPTY;
    let mut eq = true;
    for ivl in col {
        let a = ord64(ivl.lo);
        let b = ord64(ivl.hi);
        lo.update(a);
        hi.update(b);
        eq &= a == b;
    }
    hi.eq_prev = eq;
    stats.push(lo);
    stats.push(hi);
}

/// Stats for one secondary column's four key words (step-1 `cell_key`).
fn push_cell_stats(stats: &mut Vec<WordStat>, col: &[WCell]) {
    let mut s = [WordStat::EMPTY; 4];
    let mut eq21 = true;
    let mut eq32 = true;
    for &cell in col {
        let wds = cell_key_words(cell);
        for (st, v) in s.iter_mut().zip(wds) {
            st.update(v);
        }
        eq21 &= wds[2] == wds[1];
        eq32 &= wds[3] == wds[2];
    }
    s[2].eq_prev = eq21;
    s[3].eq_prev = eq32;
    stats.extend_from_slice(&s);
}

/// Stats for one secondary column's four masked key words (step-2
/// `sec_key`, which also reads the target attribute).
fn push_sec_stats(stats: &mut Vec<WordStat>, col: &[WCell], pj: &[Interval], want_rel: bool) {
    let mut s = [WordStat::EMPTY; 4];
    let mut eq21 = true;
    let mut eq32 = true;
    for (&cell, &p) in col.iter().zip(pj.iter()) {
        let wds = sec_key_words(cell, want_rel, p);
        for (st, v) in s.iter_mut().zip(wds) {
            st.update(v);
        }
        eq21 &= wds[2] == wds[1];
        eq32 &= wds[3] == wds[2];
    }
    s[2].eq_prev = eq21;
    s[3].eq_prev = eq32;
    stats.extend_from_slice(&s);
}

/// Build `(packed u64 key, row id)` pairs by OR-folding each kept word's
/// range-reduced value at its fixed bit offset, column-major.
fn pack_columns_u64<'a>(
    pairs: &mut Vec<(u64, u32)>,
    n: usize,
    kept: &[KeptWord],
    total_bits: u32,
    source: impl Fn(usize) -> WordFill<'a>,
) {
    pairs.clear();
    pairs.extend((0..n).map(|r| (0u64, r as u32)));
    let mut off = total_bits;
    for kw in kept {
        off -= kw.width;
        let min = kw.min;
        source(kw.word).for_each(|r, v| {
            pairs[r].0 |= (v - min) << off;
        });
    }
}

/// `u128` variant of [`pack_columns_u64`].
fn pack_columns_u128<'a>(
    pairs: &mut Vec<(u128, u32)>,
    n: usize,
    kept: &[KeptWord],
    total_bits: u32,
    source: impl Fn(usize) -> WordFill<'a>,
) {
    pairs.clear();
    pairs.extend((0..n).map(|r| (0u128, r as u32)));
    let mut off = total_bits;
    for kw in kept {
        off -= kw.width;
        let min = kw.min;
        source(kw.word).for_each(|r, v| {
            pairs[r].0 |= u128::from(v - min) << off;
        });
    }
}

/// Sort `(u64 key, row id)` pairs: O(n) sorted pre-check, then a stable
/// LSD radix sort over the used bits (or a comparison sort for small
/// inputs). Keys are distinct across distinct rows, so every strategy
/// yields the same order.
fn sort_pairs_u64(
    pairs: &mut Vec<(u64, u32)>,
    tmp: &mut Vec<(u64, u32)>,
    counts: &mut Vec<u32>,
    total_bits: u32,
) {
    if pairs.windows(2).all(|w| w[0].0 <= w[1].0) {
        return;
    }
    if pairs.len() < RADIX_MIN {
        pairs.sort_unstable_by_key(|p| p.0);
        return;
    }
    // Digit size chosen to minimize passes with ≤ 2^18 buckets.
    let passes = total_bits.div_ceil(18).max(1);
    let digit = total_bits.div_ceil(passes);
    let buckets = 1usize << digit;
    let mask = (buckets - 1) as u64;
    counts.clear();
    counts.resize(buckets, 0);
    tmp.clear();
    tmp.resize(pairs.len(), (0, 0));
    let mut shift = 0u32;
    while shift < total_bits {
        counts.fill(0);
        for &(k, _) in pairs.iter() {
            counts[((k >> shift) & mask) as usize] += 1;
        }
        let mut sum = 0u32;
        for c in counts.iter_mut() {
            let v = *c;
            *c = sum;
            sum += v;
        }
        for &p in pairs.iter() {
            let b = ((p.0 >> shift) & mask) as usize;
            tmp[counts[b] as usize] = p;
            counts[b] += 1;
        }
        std::mem::swap(pairs, tmp);
        shift += digit;
    }
}

/// Sort `(u128 key, row id)` pairs: sorted pre-check, then a comparison
/// sort.
fn sort_pairs_u128(pairs: &mut [(u128, u32)]) {
    if pairs.windows(2).all(|w| w[0].0 <= w[1].0) {
        return;
    }
    pairs.sort_unstable_by_key(|p| p.0);
}

/// Build and sort the `(u128 prefix, row id)` entries of the `Wide` mode:
/// the first two key words ride inline, remaining words break prefix ties
/// via one contiguous slice compare.
fn sort_wide(sort: &mut Vec<(u128, u32)>, keys: &[u64], w: usize, n: usize) {
    sort.clear();
    sort.reserve(n);
    for r in 0..n {
        let base = r * w;
        let prefix = (u128::from(keys[base]) << 64) | u128::from(keys[base + 1]);
        sort.push((prefix, r as u32));
    }
    let cmp = |a: &(u128, u32), b: &(u128, u32)| wide_cmp(a, b, keys, w);
    if sort
        .windows(2)
        .all(|s| cmp(&s[0], &s[1]) != Ordering::Greater)
    {
        return;
    }
    sort.sort_unstable_by(cmp);
}

/// Full wide-key comparison: inline `u128` prefix first, remaining words
/// via one contiguous slice compare.
#[inline]
fn wide_cmp(a: &(u128, u32), b: &(u128, u32), keys: &[u64], w: usize) -> Ordering {
    a.0.cmp(&b.0).then_with(|| {
        let ia = a.1 as usize * w;
        let ib = b.1 as usize * w;
        keys[ia + 2..ia + w].cmp(&keys[ib + 2..ib + w])
    })
}

/// Dispatch the merge scan over the sorted representation of the pass.
#[allow(clippy::too_many_arguments)]
fn scan_by_mode(
    mode: KeyMode,
    pairs64: &[(u64, u32)],
    pairs128: &[(u128, u32)],
    wide_sort: &[(u128, u32)],
    wide_keys: &[u64],
    w: usize,
    group_w: usize,
    target_bits: u32,
    runs: &mut Vec<Run>,
    init_hi: impl Fn(u32) -> i64,
    extend: impl Fn(u32, i64, u32) -> Option<i64>,
) {
    match mode {
        KeyMode::Packed64 => {
            let tb = target_bits;
            let same = |t: usize| tb >= 64 || pairs64[t - 1].0 >> tb == pairs64[t].0 >> tb;
            let id = |t: usize| pairs64[t].1;
            scan_runs(pairs64.len(), id, same, runs, init_hi, extend);
        }
        KeyMode::Packed128 => {
            let tb = target_bits;
            let same = |t: usize| tb >= 128 || pairs128[t - 1].0 >> tb == pairs128[t].0 >> tb;
            let id = |t: usize| pairs128[t].1;
            scan_runs(pairs128.len(), id, same, runs, init_hi, extend);
        }
        KeyMode::Wide => {
            // Group prefix: the leading `group_w` words (always ≥ 2, so the
            // inline prefix is entirely group words).
            let same = |t: usize| {
                let (pa, ra) = wide_sort[t - 1];
                let (pb, rb) = wide_sort[t];
                pa == pb && {
                    let ia = ra as usize * w;
                    let ib = rb as usize * w;
                    wide_keys[ia + 2..ia + group_w] == wide_keys[ib + 2..ib + group_w]
                }
            };
            let id = |t: usize| wide_sort[t].1;
            scan_runs(wide_sort.len(), id, same, runs, init_hi, extend);
        }
    }
}

/// Detect merge runs over the sorted permutation.
///
/// `id(t)` is the row at sorted position `t`; `same_group(t)` whether
/// positions `t - 1` and `t` share a group prefix. A run extends while the
/// group holds and `extend(first, hi, cur)` grants a new accumulated `hi`;
/// `init_hi` seeds the accumulator from a run's first row.
fn scan_runs(
    n: usize,
    id: impl Fn(usize) -> u32,
    same_group: impl Fn(usize) -> bool,
    runs: &mut Vec<Run>,
    init_hi: impl Fn(u32) -> i64,
    extend: impl Fn(u32, i64, u32) -> Option<i64>,
) {
    runs.clear();
    if n == 0 {
        return;
    }
    let mut run = Run {
        first: id(0),
        hi: init_hi(id(0)),
        merged: false,
    };
    for t in 1..n {
        let row = id(t);
        let extended = if same_group(t) {
            extend(run.first, run.hi, row)
        } else {
            None
        };
        match extended {
            Some(new_hi) => {
                run.hi = new_hi;
                run.merged = true;
            }
            None => {
                runs.push(run);
                run = Run {
                    first: row,
                    hi: init_hi(row),
                    merged: false,
                };
            }
        }
    }
    runs.push(run);
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn radix_sort_matches_comparison_sort() {
        for n in [1usize, 5, 300, 9000] {
            for bits in [13u32, 34, 63] {
                let modulus = 1u64 << bits;
                let vals = lcg(n, modulus);
                let mut pairs: Vec<(u64, u32)> = vals
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (v, i as u32))
                    .collect();
                let mut expect = pairs.clone();
                // Stable radix keeps index order for equal keys, matching
                // the (key, index) comparison.
                expect.sort_unstable_by_key(|p| (p.0, p.1));
                sort_pairs_u64(&mut pairs, &mut Vec::new(), &mut Vec::new(), bits);
                if n >= RADIX_MIN {
                    assert_eq!(pairs, expect, "n={n} bits={bits}");
                } else {
                    // Comparison path: only key order is guaranteed (key
                    // ties cannot occur in the real pipeline).
                    let keys: Vec<u64> = pairs.iter().map(|p| p.0).collect();
                    let expect_keys: Vec<u64> = expect.iter().map(|p| p.0).collect();
                    assert_eq!(keys, expect_keys, "n={n} bits={bits}");
                }
            }
        }
    }

    #[test]
    fn sorted_input_short_circuits() {
        let mut pairs: Vec<(u64, u32)> = (0..100u32).map(|i| (u64::from(i) * 3, i)).collect();
        let expect = pairs.clone();
        sort_pairs_u64(&mut pairs, &mut Vec::new(), &mut Vec::new(), 9);
        assert_eq!(pairs, expect);
    }

    #[test]
    fn ord64_preserves_order() {
        let vals = [i64::MIN, -5, -1, 0, 1, 7, i64::MAX];
        for pair in vals.windows(2) {
            assert!(ord64(pair[0]) < ord64(pair[1]));
        }
    }
}
