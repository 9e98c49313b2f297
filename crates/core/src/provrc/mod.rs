//! The ProvRC lineage compression algorithm (paper §IV).
//!
//! ProvRC has two subroutines applied in order:
//!
//! 1. **Multi-attribute range encoding over the secondary attributes**
//!    (§IV.A step 1): each secondary attribute, processed last-to-first, is
//!    collapsed into contiguous integer ranges wherever all other attributes
//!    agree.
//! 2. **Relative value transformation + range encoding over the primary
//!    attributes** (§IV.A step 2): a secondary attribute may be re-expressed
//!    as a delta against the primary attribute being encoded (`a = b + δ`),
//!    opening range-merge opportunities that absolute values hide.
//!
//! For the *backward* orientation (the default stored form) the primary side
//! is the output attributes; for the *forward* orientation (Table III) the
//! roles are swapped — one parameterized implementation serves both.
//!
//! Implementation notes vs. the paper (documented in DESIGN.md §3.2):
//! * We re-sort before every per-attribute pass instead of sorting once;
//!   this finds strictly more merges and each merge remains an exact
//!   union-of-Cartesian-products rewrite, so losslessness is unaffected.
//! * When encoding primary attribute `b_j`, the paper's condition "some
//!   column of `{a_i, a_i b_1, …, a_i b_l}` agrees" reduces to
//!   "`a_i` agrees absolutely OR `a_i − b_j` agrees" because all other
//!   primary attributes are fixed inside a candidate run. We enumerate the
//!   abs/rel choice per still-absolute secondary attribute (≤ 2^m combos,
//!   capped heuristically for very wide relations).
//!
//! The pass sequence runs in the columnar pipeline (`columnar`): packed key
//! permutations sorted over a struct-of-arrays arena. The row-of-structs
//! statement of the same passes lives outside this crate, in
//! `dslog-oracle`'s `provrc` module (a dev-dependency; nothing here can
//! select it), and `provrc_fast_parity.rs` property-tests that both
//! produce the same bytes.
//!
//! One relation in one orientation compresses on the calling thread.
//! Threads enter across relations ([`compress_batch_parallel_opts`], the
//! granularity the paper's "highly parallelizable" remark is about) and
//! across the two orientations of one relation ([`compress_both_opts`]),
//! both through `crate::par` and each sized from its input by one grain
//! constant.

mod columnar;
pub mod reshape;

use crate::par;
use crate::table::{CompressedTable, LineageTable, Orientation};

/// Tuning knobs for ProvRC compression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressOptions {
    /// Allow worker threads across the relations of
    /// [`compress_batch_parallel_opts`] and across the two orientations of
    /// [`compress_both_opts`], each sized from its input. `false` is the
    /// "no threads" ablation; one relation in one orientation always
    /// compresses on the calling thread.
    pub parallel: bool,
}

impl Default for CompressOptions {
    fn default() -> Self {
        Self { parallel: true }
    }
}

/// Compress `table` (an uncompressed lineage relation) with ProvRC.
///
/// `out_shape` / `in_shape` are the shapes of the output and input arrays;
/// they are recorded as attribute extents (used by index reshaping and for
/// reporting) and do not affect correctness of compression itself.
pub fn compress(
    table: &LineageTable,
    out_shape: &[usize],
    in_shape: &[usize],
    orientation: Orientation,
) -> CompressedTable {
    assert_eq!(table.out_arity(), out_shape.len(), "out shape arity");
    assert_eq!(table.in_arity(), in_shape.len(), "in shape arity");
    columnar::compress(table, out_shape, in_shape, orientation)
}

/// Compress in both orientations at once (paper §IV.C: "either both versions
/// can be stored or one version depending on the distribution of forward and
/// reverse queries").
pub fn compress_both(
    table: &LineageTable,
    out_shape: &[usize],
    in_shape: &[usize],
) -> (CompressedTable, CompressedTable) {
    compress_both_opts(table, out_shape, in_shape, CompressOptions::default())
}

/// Work (2 × rows) per worker below which [`compress_both_opts`] keeps both
/// orientations on the calling thread. Measured on 2 vCPUs: a second thread
/// is 1.1–1.5× slower on a one-to-one relation of 5–15 k rows, even at
/// 20 k and 0.69–0.80× from 35 k; on a scatter relation it is already
/// 0.58× at 20 k (README, "Where DSLog uses threads").
const BOTH_GRAIN: usize = 1 << 14;

/// [`compress_both`] with explicit options: with `parallel`, a relation of
/// at least 16 384 rows compresses its two orientations on two threads.
pub fn compress_both_opts(
    table: &LineageTable,
    out_shape: &[usize],
    in_shape: &[usize],
    opts: CompressOptions,
) -> (CompressedTable, CompressedTable) {
    let workers = if opts.parallel {
        par::workers_for(2 * table.n_rows(), BOTH_GRAIN)
    } else {
        1
    };
    compress_both_on(table, out_shape, in_shape, workers)
}

/// [`compress_both_opts`] on a given worker count.
fn compress_both_on(
    table: &LineageTable,
    out_shape: &[usize],
    in_shape: &[usize],
    workers: usize,
) -> (CompressedTable, CompressedTable) {
    let orientations = [Orientation::Backward, Orientation::Forward];
    let mut pair = par::map(2, workers, |i| {
        compress(table, out_shape, in_shape, orientations[i])
    });
    match (pair.pop(), pair.pop()) {
        (Some(forward), Some(backward)) => (backward, forward),
        _ => unreachable!("par::map returns one result per item"),
    }
}

/// One batch-compression job: a relation plus its array shapes.
pub type CompressJob<'a> = (&'a LineageTable, &'a [usize], &'a [usize]);

/// Compress several relations, using the default [`CompressOptions`].
pub fn compress_batch_parallel(
    jobs: &[CompressJob<'_>],
    orientation: Orientation,
) -> Vec<CompressedTable> {
    compress_batch_parallel_opts(jobs, orientation, CompressOptions::default())
}

/// Rows (summed over the batch) per worker below which
/// [`compress_batch_parallel_opts`] stays on the calling thread. Measured
/// on 2 vCPUs with a 4-job batch: two workers are 1.2–1.6× slower at
/// 3–8 k rows, 0.90× at 12 k and 0.75–0.85× from 33 k.
const BATCH_GRAIN: usize = 5_000;

/// Compress several relations, on worker threads when `opts.parallel` and
/// the batch holds at least 10 000 rows (one worker per 5 000).
///
/// The paper notes "ProvRC is also highly parallelizable, so we expect
/// significant performance gains from a multi-threaded implementation" —
/// this parallelizes across tables (one per operation/array pair), which is
/// the granularity `register_operation` produces: storage ingests every
/// edge of a call (and every job of a service batch) as one batch through
/// this function, one call per stored orientation. Jobs are handed out
/// largest estimated work first (rows × ProvRC's pass count for the job's
/// arities), each worker taking the next off a shared counter, so the
/// heaviest job never starts last and skewed job sizes stay balanced.
/// Results keep job order.
pub fn compress_batch_parallel_opts(
    jobs: &[CompressJob<'_>],
    orientation: Orientation,
    opts: CompressOptions,
) -> Vec<CompressedTable> {
    let workers = if opts.parallel {
        let rows = jobs.iter().map(|(table, _, _)| table.n_rows()).sum();
        par::workers_for(rows, BATCH_GRAIN)
    } else {
        1
    };
    compress_batch_on(jobs, orientation, workers)
}

/// [`compress_batch_parallel_opts`] on a given worker count.
fn compress_batch_on(
    jobs: &[CompressJob<'_>],
    orientation: Orientation,
    workers: usize,
) -> Vec<CompressedTable> {
    let work = |&(table, _, _): &CompressJob<'_>| {
        let (prim, sec) = match orientation {
            Orientation::Backward => (table.out_arity(), table.in_arity()),
            Orientation::Forward => (table.in_arity(), table.out_arity()),
        };
        table.n_rows() * columnar::pass_count(prim, sec)
    };
    // Heaviest first; the stable sort keeps equal jobs in job order.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(work(&jobs[i])));
    let done = par::map(jobs.len(), workers, |k| {
        let (table, out_shape, in_shape) = jobs[order[k]];
        compress(table, out_shape, in_shape, orientation)
    });
    let mut tables: Vec<(usize, CompressedTable)> = order.into_iter().zip(done).collect();
    tables.sort_unstable_by_key(|(i, _)| *i);
    tables.into_iter().map(|(_, table)| table).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::Interval;
    use crate::table::Cell;

    /// Paper Fig. 1(B): `B = numpy.sum(A, axis=1)`, 3x2 input, 1-based.
    fn paper_sum_table() -> LineageTable {
        LineageTable::from_rows(
            1,
            2,
            &[
                &[1, 1, 1],
                &[1, 1, 2],
                &[2, 2, 1],
                &[2, 2, 2],
                &[3, 3, 1],
                &[3, 3, 2],
            ],
        )
    }

    #[test]
    fn paper_running_example_compresses_to_one_row() {
        // Shapes don't matter for the merge structure; use 1-based-compatible
        // extents large enough to cover the indices.
        let t = paper_sum_table();
        let c = compress(&t, &[4], &[4, 3], Orientation::Backward);
        // Paper Table II final: single row (b1=[1,3], a1 rel 0, a2=[1,2]).
        assert_eq!(c.n_rows(), 1, "expected 1 row, got:\n{c}");
        let row = c.row(0);
        assert_eq!(row[0], Cell::abs(1, 3));
        assert_eq!(
            row[1],
            Cell::Rel {
                anchor: 0,
                delta: Interval::point(0)
            }
        );
        assert_eq!(row[2], Cell::abs(1, 2));
    }

    #[test]
    fn paper_forward_table_iii() {
        let t = paper_sum_table();
        let c = compress(&t, &[4], &[4, 3], Orientation::Forward);
        // Paper Table III: a1=[1,3], a2=[1,2], b1 rel to a1 with delta 0.
        assert_eq!(c.n_rows(), 1, "expected 1 row, got:\n{c}");
        let row = c.row(0);
        assert_eq!(row[0], Cell::abs(1, 3));
        assert_eq!(row[1], Cell::abs(1, 2));
        assert_eq!(
            row[2],
            Cell::Rel {
                anchor: 0,
                delta: Interval::point(0)
            }
        );
    }

    #[test]
    fn losslessness_on_running_example() {
        let t = paper_sum_table().normalized();
        for orientation in [Orientation::Backward, Orientation::Forward] {
            let c = compress(&t, &[4], &[4, 3], orientation);
            assert_eq!(c.decompress().unwrap().row_set(), t.row_set());
        }
    }

    #[test]
    fn aggregate_all_to_all_single_row() {
        // Fig. 2: 4x4 aggregated into one cell — all-to-all.
        let mut t = LineageTable::new(1, 2);
        for i in 0..4 {
            for j in 0..4 {
                t.push_row(&[0, i, j]);
            }
        }
        let c = compress(&t, &[1], &[4, 4], Orientation::Backward);
        assert_eq!(c.n_rows(), 1);
        assert_eq!(c.row(0)[0], Cell::point(0));
        assert_eq!(c.row(0)[1], Cell::abs(0, 3));
        assert_eq!(c.row(0)[2], Cell::abs(0, 3));
    }

    #[test]
    fn elementwise_one_to_one_single_row() {
        // Fig. 3: one-to-one over arbitrary n.
        let n = 100;
        let mut t = LineageTable::new(1, 1);
        for i in 0..n {
            t.push_row(&[i, i]);
        }
        let c = compress(&t, &[n as usize], &[n as usize], Orientation::Backward);
        assert_eq!(c.n_rows(), 1, "got:\n{c}");
        assert_eq!(c.row(0)[0], Cell::abs(0, n - 1));
        assert_eq!(
            c.row(0)[1],
            Cell::Rel {
                anchor: 0,
                delta: Interval::point(0)
            }
        );
    }

    #[test]
    fn identity_2d_single_row() {
        let (h, w) = (8i64, 5i64);
        let mut t = LineageTable::new(2, 2);
        for i in 0..h {
            for j in 0..w {
                t.push_row(&[i, j, i, j]);
            }
        }
        let c = compress(
            &t,
            &[h as usize, w as usize],
            &[h as usize, w as usize],
            Orientation::Backward,
        );
        assert_eq!(c.n_rows(), 1, "got:\n{c}");
        let zero = Interval::point(0);
        assert_eq!(c.row(0)[0], Cell::abs(0, h - 1));
        assert_eq!(c.row(0)[1], Cell::abs(0, w - 1));
        assert_eq!(
            c.row(0)[2],
            Cell::Rel {
                anchor: 0,
                delta: zero
            }
        );
        assert_eq!(
            c.row(0)[3],
            Cell::Rel {
                anchor: 1,
                delta: zero
            }
        );
    }

    #[test]
    fn convolution_window_single_row() {
        // 1-D convolution with window [-1, +1] on interior cells:
        // out i ← in {i-1, i, i+1} for i in 1..n-1.
        let n = 50i64;
        let mut t = LineageTable::new(1, 1);
        for i in 1..n - 1 {
            for d in -1..=1 {
                t.push_row(&[i, i + d]);
            }
        }
        let c = compress(&t, &[n as usize], &[n as usize], Orientation::Backward);
        assert_eq!(c.n_rows(), 1, "got:\n{c}");
        assert_eq!(c.row(0)[0], Cell::abs(1, n - 2));
        assert_eq!(
            c.row(0)[1],
            Cell::Rel {
                anchor: 0,
                delta: Interval::new(-1, 1)
            }
        );
    }

    #[test]
    fn matmul_lineage_compresses_to_constant_rows() {
        // C = A·B lineage for the A side: C[i,j] ← A[i, k] for all k.
        let (n, k_dim, m) = (6i64, 4i64, 5i64);
        let mut t = LineageTable::new(2, 2);
        for i in 0..n {
            for j in 0..m {
                for k in 0..k_dim {
                    t.push_row(&[i, j, i, k]);
                }
            }
        }
        let c = compress(
            &t,
            &[n as usize, m as usize],
            &[n as usize, k_dim as usize],
            Orientation::Backward,
        );
        assert_eq!(c.n_rows(), 1, "got:\n{c}");
        assert_eq!(c.decompress().unwrap().row_set(), t.normalized().row_set());
    }

    #[test]
    fn sort_permutation_does_not_compress() {
        // Worst case (paper: "Sort is the worst case for ProvRC").
        // A pseudo-random permutation with no contiguous structure.
        let n = 64i64;
        let mut t = LineageTable::new(1, 1);
        for i in 0..n {
            t.push_row(&[i, (i * 37 + 11) % n]);
        }
        let c = compress(&t, &[n as usize], &[n as usize], Orientation::Backward);
        // A couple of accidental merges can occur, but compression must be
        // marginal, and losslessness must hold.
        assert!(c.n_rows() as i64 > n / 2, "rows: {}", c.n_rows());
        assert_eq!(c.decompress().unwrap().row_set(), t.normalized().row_set());
    }

    #[test]
    fn diagonal_shared_anchor_roundtrip() {
        // B[i] = A[i,i]: both input attributes anchor to b1.
        let n = 10i64;
        let mut t = LineageTable::new(1, 2);
        for i in 0..n {
            t.push_row(&[i, i, i]);
        }
        let c = compress(
            &t,
            &[n as usize],
            &[n as usize, n as usize],
            Orientation::Backward,
        );
        assert_eq!(c.n_rows(), 1, "got:\n{c}");
        assert_eq!(c.decompress().unwrap().row_set(), t.row_set());
    }

    #[test]
    fn empty_table() {
        let t = LineageTable::new(1, 1);
        let c = compress(&t, &[1], &[1], Orientation::Backward);
        assert_eq!(c.n_rows(), 0);
        assert!(c.decompress().unwrap().is_empty());
    }

    #[test]
    fn repetition_tile_lineage() {
        // np.tile(a, 2): out i ← in (i mod n).
        let n = 16i64;
        let mut t = LineageTable::new(1, 1);
        for i in 0..2 * n {
            t.push_row(&[i, i % n]);
        }
        let c = compress(&t, &[2 * n as usize], &[n as usize], Orientation::Backward);
        // Two runs: b in [0,n-1] rel delta 0; b in [n,2n-1] rel delta -n.
        assert_eq!(c.n_rows(), 2, "got:\n{c}");
        assert_eq!(c.decompress().unwrap().row_set(), t.row_set());
    }

    #[test]
    fn parallel_batch_matches_serial() {
        let mut jobs_data = Vec::new();
        for k in 1..8i64 {
            let mut t = LineageTable::new(1, 1);
            for i in 0..40 {
                t.push_row(&[i, (i + k) % 40]);
            }
            jobs_data.push(t);
        }
        let shape = [40usize];
        let jobs: Vec<super::CompressJob<'_>> = jobs_data
            .iter()
            .map(|t| (t, &shape[..], &shape[..]))
            .collect();
        let parallel = super::compress_batch_parallel(&jobs, Orientation::Backward);
        for (t, c) in jobs_data.iter().zip(parallel.iter()) {
            let serial = compress(t, &shape, &shape, Orientation::Backward);
            assert_eq!(c, &serial);
        }
        // 280 rows stay on the calling thread; forced onto three workers
        // the batch is bit-identical and still in job order.
        assert_eq!(compress_batch_on(&jobs, Orientation::Backward, 3), parallel);

        // A skewed batch whose heaviest job (a 2-D relation, many rows)
        // comes last: handed out first, it must still come back last.
        let mut heavy = LineageTable::new(2, 2);
        for i in 0..30 {
            for j in 0..30 {
                heavy.push_row(&[i, j, i, (j + 1) % 30]);
            }
        }
        let (small, grid) = ([40usize], [30usize, 30]);
        let mut skewed: Vec<CompressJob<'_>> = (jobs_data.iter())
            .map(|t| (t, &small[..], &small[..]))
            .collect();
        skewed.push((&heavy, &grid[..], &grid[..]));
        let serial = compress_batch_on(&skewed, Orientation::Backward, 1);
        assert_eq!(serial.len(), skewed.len());
        for (&(t, out_shape, in_shape), c) in skewed.iter().zip(&serial) {
            assert_eq!(c, &compress(t, out_shape, in_shape, Orientation::Backward));
        }
        assert_eq!(compress_batch_on(&skewed, Orientation::Backward, 2), serial);
    }

    #[test]
    fn batch_parallel_opts_honors_ablation() {
        let mut t = LineageTable::new(1, 1);
        for i in 0..30 {
            t.push_row(&[i, i]);
        }
        let shape = [30usize];
        let jobs: Vec<CompressJob<'_>> = vec![(&t, &shape[..], &shape[..]); 3];
        // The threading ablation runs every job on the calling thread.
        let pooled = compress_batch_parallel(&jobs, Orientation::Backward);
        let serial = compress_batch_parallel_opts(
            &jobs,
            Orientation::Backward,
            CompressOptions { parallel: false },
        );
        assert_eq!(pooled, serial);
    }

    #[test]
    fn both_orientations_agree() {
        let mut t = LineageTable::new(2, 1);
        for i in 0..5 {
            for j in 0..3 {
                t.push_row(&[i, j, i * 3 + j]);
            }
        }
        let (b, f) = compress_both(&t, &[5, 3], &[15]);
        assert_eq!(
            b.decompress().unwrap().row_set(),
            f.decompress().unwrap().row_set()
        );
        assert_eq!(b.decompress().unwrap().row_set(), t.normalized().row_set());
        // Two threads (three asked for, two items) return the same pair.
        assert_eq!(compress_both_on(&t, &[5, 3], &[15], 3), (b, f));
    }
}
