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

mod columnar;
pub mod reshape;

use crate::table::{CompressedTable, LineageTable, Orientation};

/// Tuning knobs for ProvRC compression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressOptions {
    /// Allow multi-threading: scoped-thread parallel sort and run-chunked
    /// merge scans inside a pass, and worker fan-out across batch jobs in
    /// [`compress_batch_parallel_opts`].
    pub parallel: bool,
    /// Minimum active rows in a pass before threads are spawned.
    pub parallel_threshold: usize,
}

impl Default for CompressOptions {
    fn default() -> Self {
        Self {
            parallel: true,
            parallel_threshold: 1 << 14,
        }
    }
}

/// Compress `table` (an uncompressed lineage relation) with ProvRC, using
/// the default [`CompressOptions`].
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
    compress_opts(
        table,
        out_shape,
        in_shape,
        orientation,
        CompressOptions::default(),
    )
}

/// [`compress`] with explicit threading options.
pub fn compress_opts(
    table: &LineageTable,
    out_shape: &[usize],
    in_shape: &[usize],
    orientation: Orientation,
    opts: CompressOptions,
) -> CompressedTable {
    assert_eq!(table.out_arity(), out_shape.len(), "out shape arity");
    assert_eq!(table.in_arity(), in_shape.len(), "in shape arity");
    columnar::compress(table, out_shape, in_shape, orientation, opts)
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

/// [`compress_both`] with explicit options. With `parallel` enabled and
/// more than one hardware thread, the two orientations compress on
/// concurrent scoped threads.
pub fn compress_both_opts(
    table: &LineageTable,
    out_shape: &[usize],
    in_shape: &[usize],
    opts: CompressOptions,
) -> (CompressedTable, CompressedTable) {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if opts.parallel && hw > 1 {
        // Each orientation keeps its own in-pass parallelism budget; the OS
        // schedules the (bounded) oversubscription.
        let mut pair: (Option<CompressedTable>, Option<CompressedTable>) = (None, None);
        std::thread::scope(|scope| {
            let (b, f) = (&mut pair.0, &mut pair.1);
            scope.spawn(|| {
                *b = Some(compress_opts(
                    table,
                    out_shape,
                    in_shape,
                    Orientation::Backward,
                    opts,
                ));
            });
            *f = Some(compress_opts(
                table,
                out_shape,
                in_shape,
                Orientation::Forward,
                opts,
            ));
        });
        (pair.0.expect("backward job"), pair.1.expect("forward job"))
    } else {
        (
            compress_opts(table, out_shape, in_shape, Orientation::Backward, opts),
            compress_opts(table, out_shape, in_shape, Orientation::Forward, opts),
        )
    }
}

/// One batch-compression job: a relation plus its array shapes.
pub type CompressJob<'a> = (&'a LineageTable, &'a [usize], &'a [usize]);

/// Compress several relations in parallel with scoped worker threads,
/// using the default [`CompressOptions`].
pub fn compress_batch_parallel(
    jobs: &[CompressJob<'_>],
    orientation: Orientation,
) -> Vec<CompressedTable> {
    compress_batch_parallel_opts(jobs, orientation, CompressOptions::default())
}

/// Compress several relations in parallel with scoped worker threads.
///
/// The paper notes "ProvRC is also highly parallelizable, so we expect
/// significant performance gains from a multi-threaded implementation" —
/// this parallelizes across tables (one per operation/array pair), which is
/// the granularity `register_operation` produces: workers steal the next
/// job off a shared atomic counter, so skewed job sizes stay balanced.
/// When several jobs run concurrently, in-pass parallelism is disabled
/// (the hardware threads are already saturated by job-level fan-out).
/// Results keep job order.
pub fn compress_batch_parallel_opts(
    jobs: &[CompressJob<'_>],
    orientation: Orientation,
    opts: CompressOptions,
) -> Vec<CompressedTable> {
    if jobs.len() <= 1 || !opts.parallel {
        return jobs
            .iter()
            .map(|(t, o, i)| compress_opts(t, o, i, orientation, opts))
            .collect();
    }
    let n_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(jobs.len());
    let job_opts = if n_threads > 1 {
        CompressOptions {
            parallel: false,
            ..opts
        }
    } else {
        opts
    };
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut results: Vec<Option<CompressedTable>> = (0..jobs.len()).map(|_| None).collect();
    let slots: Vec<dslog_sync::Mutex<&mut Option<CompressedTable>>> = results
        .iter_mut()
        .map(|slot| dslog_sync::Mutex::new(&dslog_sync::ranks::BATCH_RESULT, slot))
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..n_threads {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if idx >= jobs.len() {
                    break;
                }
                let (t, o, i) = jobs[idx];
                let compressed = compress_opts(t, o, i, orientation, job_opts);
                **slots[idx].lock() = Some(compressed);
            });
        }
    });
    drop(slots);
    results
        .into_iter()
        .map(|r| r.expect("job completed"))
        .collect()
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
    }

    #[test]
    fn batch_parallel_opts_honors_ablation() {
        let mut t = LineageTable::new(1, 1);
        for i in 0..30 {
            t.push_row(&[i, i]);
        }
        let shape = [30usize];
        let jobs: Vec<CompressJob<'_>> = vec![(&t, &shape[..], &shape[..]); 3];
        // The threading ablation takes the serial early return.
        let pooled = compress_batch_parallel(&jobs, Orientation::Backward);
        let serial = compress_batch_parallel_opts(
            &jobs,
            Orientation::Backward,
            CompressOptions {
                parallel: false,
                ..CompressOptions::default()
            },
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
    }
}
