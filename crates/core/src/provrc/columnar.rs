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
//! * **One sort kernel.** Every pass's sort key is a fixed vector of
//!   order-preserving `u64` words: a primary interval is `lo` and its
//!   length, a secondary cell a tag and three words. They stream out of
//!   the arena, one sweep per attribute, into `crate::sort::KeySort`,
//!   which drops the constant words, range-reduces and packs the rest
//!   above the row id, and sorts (radix for big keys whose words fit 64
//!   bits). Every word but the tag is an `ord64` image or a length, so
//!   cells of both kinds share a word's small range: a column that mixes
//!   `Abs` and `Rel` cells packs into the bits its values span, not into
//!   64 per word. A point's length word is constant and takes no bits.
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
//!   owed (above); on the arena the kernel keeps the final pass's order,
//!   applied when the table is materialized.
//!
//! One compression runs on the calling thread: an in-pass parallel sort
//! and a run-chunked scan were measured slower on every shape from 20 k to
//! 1 M rows and removed; threads enter one level up, across relations and
//! orientations (`super::compress_batch_parallel_opts`).

use crate::interval::{ord64, Interval};
use crate::sort::{KeySort, Words};
use crate::table::column::Column;
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

/// The four key words of a step-1 cell: absolute cells sort before
/// relative ones.
#[inline]
fn cell_key_words(cell: WCell) -> [u64; 4] {
    match cell {
        WCell::Abs(ivl) => abs_key(0, ivl),
        WCell::Rel { anchor, delta } => rel_key(1, anchor, delta),
    }
}

/// The four key words of a step-2 cell under a rel-mask bit. The tag word
/// keeps distinct representations from comparing equal: 0 abs, 1
/// abs-by-delta (point target), 2 abs kept absolute under an interval
/// target (never converted), 3 already relative, by `(anchor, delta)`.
#[inline]
fn sec_key_words(cell: WCell, want_rel: bool, prim_j: Interval) -> [u64; 4] {
    match cell {
        WCell::Abs(ivl) if want_rel && prim_j.is_point() => abs_key(1, ivl.sub_point(prim_j.lo)),
        WCell::Abs(ivl) => abs_key(if want_rel { 2 } else { 0 }, ivl),
        WCell::Rel { anchor, delta } => rel_key(3, anchor, delta),
    }
}

/// `[tag, lo, 0, length]`: an absolute cell's key words, its constant
/// third word aligned with a relative cell's `δ.lo`.
#[inline]
fn abs_key(tag: u64, ivl: Interval) -> [u64; 4] {
    let [lo, len] = ivl.key_words();
    [tag, lo, ord64(0), len]
}

/// `[tag, anchor, δ.lo, δ length]`: a relative cell's key words.
#[inline]
fn rel_key(tag: u64, anchor: u8, delta: Interval) -> [u64; 4] {
    let [lo, len] = delta.key_words();
    [tag, ord64(i64::from(anchor)), lo, len]
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
    /// The latest pass's sort.
    keys: KeySort,
    runs: Vec<Run>,
    /// Whether the latest pass merged nothing and so left the columns in
    /// the order before it: the rows' order is then `keys`', applied when
    /// the table is emitted.
    keys_order_pending: bool,
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
            keys: KeySort::default(),
            runs: Vec::new(),
            keys_order_pending: false,
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

    /// Sort the arena's rows into `pass`'s order: by every attribute's key
    /// words, the target attribute's last. Returns the number of group
    /// attributes, the ones before the target.
    fn sort(&mut self, pass: Pass) -> usize {
        let words = PassWords {
            prim: &self.prim,
            sec: &self.sec,
            pass,
        };
        let attrs = self.prim_arity + self.sec_arity;
        self.keys.sort(self.n, attrs, &words);
        attrs - 1
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
        let group = self.sort(Pass::Secondary(k));
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
        scan_runs(&self.keys, group, &mut self.runs, init_hi, extend);
        // Zero merges: keep the arena untouched (order is irrelevant to
        // later passes); the sorted order waits in `keys` for emission.
        self.keys_order_pending = self.runs.len() == self.n;
        if self.keys_order_pending {
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
        let group = self.sort(Pass::Primary(j, mask));
        let prim_j = &self.prim[j];
        let init_hi = |first: u32| prim_j[first as usize].hi;
        let extend = |_first: u32, hi: i64, cur: u32| {
            let p = prim_j[cur as usize];
            (hi + 1 == p.lo).then_some(p.hi)
        };
        scan_runs(&self.keys, group, &mut self.runs, init_hi, extend);
        self.keys_order_pending = self.runs.len() == self.n;
        if self.keys_order_pending {
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
    }

    /// Materialize the final columns as a [`CompressedTable`], applying the
    /// pending order of a trailing zero-merge pass if any (a view
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
        let perm: Option<Vec<u32>> = self.keys_order_pending.then(|| self.keys.rows().collect());
        // Each column is gathered (through the owed order, if any) straight
        // into its form: `Column::collect` counts before it allocates.
        fn gather<'c, T: Copy>(
            col: &'c [T],
            perm: &'c Option<Vec<u32>>,
            cell: impl Fn(T) -> Cell + Clone + 'c,
        ) -> Column {
            match perm {
                Some(p) => Column::collect(p.iter().map(move |&r| cell(col[r as usize]))),
                None => Column::collect(col.iter().map(move |&c| cell(c))),
            }
        }
        let mut columns: Vec<Column> = Vec::with_capacity(self.prim_arity + self.sec_arity);
        for col in &self.prim {
            columns.push(gather(col, &perm, Cell::Abs));
        }
        for col in &self.sec {
            columns.push(gather(col, &perm, |c| match c {
                WCell::Abs(ivl) => Cell::Abs(ivl),
                WCell::Rel { anchor, delta } => Cell::Rel { anchor, delta },
            }));
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

/// The arena's key words for `pass`, one column per attribute: a primary
/// interval's two words, a secondary cell's four. Step 1 on `k` orders the
/// primary attributes, then the secondary ones with `k` last; step 2 on `j`
/// the primary attributes but `j`, the secondary ones, then `j`.
struct PassWords<'a> {
    prim: &'a [Vec<Interval>],
    sec: &'a [Vec<WCell>],
    pass: Pass,
}

impl<'a> PassWords<'a> {
    fn column(&self, col: usize) -> KeyColumn<'a> {
        let (prim, sec) = (self.prim, self.sec);
        match self.pass {
            Pass::Secondary(k) => match col.checked_sub(prim.len()) {
                None => KeyColumn::Prim(&prim[col]),
                Some(i) if i + 1 == sec.len() => KeyColumn::Cell(&sec[k]),
                Some(i) => KeyColumn::Cell(&sec[i + usize::from(i >= k)]),
            },
            Pass::Primary(j, mask) => match col.checked_sub(prim.len() - 1) {
                None => KeyColumn::Prim(&prim[col + usize::from(col >= j)]),
                Some(i) if i < sec.len() => KeyColumn::Sec {
                    col: &sec[i],
                    prim_j: &prim[j],
                    want_rel: mask & (1 << i) != 0,
                },
                Some(_) => KeyColumn::Prim(&prim[j]),
            },
        }
    }
}

impl Words for PassWords<'_> {
    fn width(&self, col: usize) -> usize {
        match self.column(col) {
            KeyColumn::Prim(_) => 2,
            _ => 4,
        }
    }

    fn each(&self, col: usize, f: impl FnMut([u64; 4])) {
        self.column(col).for_each(f);
    }
}

/// One arena column's key words in a pass: a primary interval's two (and
/// two unused), or a secondary cell's four.
#[derive(Clone, Copy)]
enum KeyColumn<'a> {
    Prim(&'a [Interval]),
    /// Step-1 `cell_key_words`.
    Cell(&'a [WCell]),
    /// Step-2 `sec_key_words` under the target attribute `prim_j`.
    Sec {
        col: &'a [WCell],
        prim_j: &'a [Interval],
        want_rel: bool,
    },
}

impl KeyColumn<'_> {
    /// Feed each row's key words, in row order, to `f`.
    #[inline]
    fn for_each(self, mut f: impl FnMut([u64; 4])) {
        match self {
            KeyColumn::Prim(col) => col.iter().for_each(|ivl| {
                let [lo, len] = ivl.key_words();
                f([lo, len, 0, 0]);
            }),
            KeyColumn::Cell(col) => col.iter().for_each(|&cell| f(cell_key_words(cell))),
            KeyColumn::Sec {
                col,
                prim_j,
                want_rel,
            } => {
                for (&cell, &pj) in col.iter().zip(prim_j) {
                    f(sec_key_words(cell, want_rel, pj));
                }
            }
        }
    }
}

/// Detect merge runs over the rows in `keys`' sorted order.
///
/// A run extends while adjacent rows agree on the first `group` attributes
/// and `extend(first, hi, cur)` grants a new accumulated `hi`; `init_hi`
/// seeds the accumulator from a run's first row.
fn scan_runs(
    keys: &KeySort,
    group: usize,
    runs: &mut Vec<Run>,
    init_hi: impl Fn(u32) -> i64,
    extend: impl Fn(u32, i64, u32) -> Option<i64>,
) {
    runs.clear();
    keys.walk(group, |row, same_group| {
        if let Some(run) = runs.last_mut().filter(|_| same_group) {
            if let Some(hi) = extend(run.first, run.hi, row) {
                run.hi = hi;
                run.merged = true;
                return;
            }
        }
        runs.push(Run {
            first: row,
            hi: init_hi(row),
            merged: false,
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pass over a secondary column that mixes `Abs` and `Rel` cells
    /// keys on the bits the values span. While an anchor or a pad word sat
    /// raw beside `ord64` images, each such word spanned about 2^63.
    #[test]
    fn mixed_abs_rel_column_keys_fit_64_bits() {
        let mut t = LineageTable::new(1, 2);
        for r in (0..64i64).rev() {
            t.push_row(&[r, 1 << 40 | r, r % 5]);
        }
        let mut arena = Arena::new(&t, Orientation::Backward, 1, 2);
        assert!(arena.view.is_none(), "unsorted input builds the arena");
        for cell in arena.sec[0].iter_mut().skip(1).step_by(2) {
            *cell = WCell::Rel {
                anchor: 0,
                delta: Interval::point(3),
            };
        }
        arena.secondary_pass(1);
        let bits = arena.keys.key_bits();
        assert!(bits <= 64, "{bits}-bit keys");
    }
}
