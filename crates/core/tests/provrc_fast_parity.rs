//! Property-based parity suite for ProvRC: the shipped columnar pipeline
//! must be **bit-identical** — same rows, same cells, same row order — to
//! the row-of-structs reference in `dslog-oracle` (the ablation), and both
//! must roundtrip through decompression to the normalized input relation.
//!
//! Covers random 1–4 attribute tables in both orientations, the batch and
//! both-orientation entry points (which must return exactly what one
//! `compress` per relation and orientation does), structured relations
//! (windows/constants, which exercise the mask pruning's shrink-and-retry
//! path), tables wide enough to hit the heuristic mask enumeration (more
//! than 6 secondary attributes), and value ranges large enough to overflow
//! the 128-bit packed-key modes into the wide sort path.
//!
//! Every random relation is checked twice: as generated (unsorted, with
//! duplicates, so the pipeline builds its arena at once) and sorted and
//! deduplicated (so passes run on the input in place until one needs a
//! sort or merges). Deterministic cases pin the hand-off from the one to
//! the other in the middle of a compression.

use dslog::provrc;
use dslog::table::{LineageTable, Orientation};
use dslog_oracle::provrc::compress_reference;
use proptest::prelude::*;

/// [`assert_parity_of`] for `t` as given and for its sorted, deduplicated
/// form.
fn assert_parity(
    t: &LineageTable,
    out_shape: &[usize],
    in_shape: &[usize],
) -> Result<(), TestCaseError> {
    assert_parity_of(t, out_shape, in_shape)?;
    assert_parity_of(&t.normalized(), out_shape, in_shape)
}

/// Assert fast ≡ ablation ≡ decompress-roundtrip for one relation, and
/// batch(jobs) ≡ [compress(job)], both ≡ (backward, forward).
fn assert_parity_of(
    t: &LineageTable,
    out_shape: &[usize],
    in_shape: &[usize],
) -> Result<(), TestCaseError> {
    let mut pair = Vec::with_capacity(2);
    for orientation in [Orientation::Backward, Orientation::Forward] {
        let reference = compress_reference(t, out_shape, in_shape, orientation);
        let fast = provrc::compress(t, out_shape, in_shape, orientation);
        prop_assert_eq!(&fast, &reference, "fast ≠ ablation ({:?})", orientation);
        let jobs: [provrc::CompressJob<'_>; 3] = [(t, out_shape, in_shape); 3];
        let batch = provrc::compress_batch_parallel(&jobs, orientation);
        prop_assert_eq!(batch.len(), jobs.len());
        for job in &batch {
            prop_assert_eq!(job, &fast, "batch ≠ compress ({:?})", orientation);
        }
        pair.push(fast);
        prop_assert_eq!(
            reference.decompress().unwrap().row_set(),
            t.normalized().row_set(),
            "roundtrip mismatch ({:?})",
            orientation
        );
    }
    let (backward, forward) = provrc::compress_both(t, out_shape, in_shape);
    prop_assert_eq!(vec![backward, forward], pair, "both ≠ (backward, forward)");
    Ok(())
}

/// Random small relation: arities 1–2 × 1–2 (1–4 attributes total).
fn arb_relation() -> impl Strategy<Value = (LineageTable, Vec<usize>, Vec<usize>)> {
    (1usize..=2, 1usize..=2).prop_flat_map(|(out_arity, in_arity)| {
        let row = prop::collection::vec(0i64..7, out_arity + in_arity);
        prop::collection::vec(row, 0..70).prop_map(move |rows| {
            let mut t = LineageTable::new(out_arity, in_arity);
            for r in &rows {
                t.push_row(r);
            }
            (t, vec![7; out_arity], vec![7; in_arity])
        })
    })
}

/// Structured relation: shifted windows or constant ranges — the patterns
/// that actually merge, exercising conversion and the pruning restart.
fn arb_structured() -> impl Strategy<Value = (LineageTable, Vec<usize>, Vec<usize>)> {
    (1i64..24, -2i64..3, 0i64..3, prop::bool::ANY).prop_map(|(n, shift, width, constant)| {
        let mut t = LineageTable::new(1, 1);
        let dim = (n + shift.unsigned_abs() as i64 + width + 4) as usize;
        for i in 0..n {
            if constant {
                for a in 0..=width {
                    t.push_row(&[i, a]);
                }
            } else {
                let base = i + shift;
                for a in base.max(0)..=(base + width).min(dim as i64 - 1) {
                    t.push_row(&[i, a]);
                }
            }
        }
        (t, vec![dim], vec![dim])
    })
}

/// Wide relation: 7 input attributes, so the backward orientation takes
/// the heuristic mask path for more than 6 secondary attributes (and the
/// forward orientation the 7-primary-attribute pass chain).
fn arb_wide() -> impl Strategy<Value = (LineageTable, Vec<usize>, Vec<usize>)> {
    let row = prop::collection::vec(0i64..3, 1 + 7);
    prop::collection::vec(row, 0..40).prop_map(|rows| {
        let mut t = LineageTable::new(1, 7);
        for r in &rows {
            t.push_row(r);
        }
        (t, vec![3], vec![3; 7])
    })
}

/// Huge-magnitude values: per-word ranges near 2^48 overflow the packed
/// 64/128-bit key modes, forcing the wide sort path.
fn arb_huge_values() -> impl Strategy<Value = (LineageTable, Vec<usize>, Vec<usize>)> {
    let big = 1i64 << 48;
    let row = prop::collection::vec((0i64..4).prop_map(move |v| v * (big / 4)), 4);
    prop::collection::vec(row, 0..30).prop_map(move |rows| {
        let mut t = LineageTable::new(2, 2);
        for r in &rows {
            t.push_row(r);
        }
        (t, vec![big as usize; 2], vec![big as usize; 2])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fast_equals_ablation_random((t, out_shape, in_shape) in arb_relation()) {
        assert_parity(&t, &out_shape, &in_shape)?;
    }

    #[test]
    fn fast_equals_ablation_structured((t, out_shape, in_shape) in arb_structured()) {
        assert_parity(&t, &out_shape, &in_shape)?;
    }

    #[test]
    fn fast_equals_ablation_wide_heuristic_masks((t, out_shape, in_shape) in arb_wide()) {
        assert_parity(&t, &out_shape, &in_shape)?;
    }

    #[test]
    fn fast_equals_ablation_wide_keys((t, out_shape, in_shape) in arb_huge_values()) {
        assert_parity(&t, &out_shape, &in_shape)?;
    }

    #[test]
    fn batch_parallel_equals_serial_ablation(
        tables in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0i64..6, 2), 1..30),
            1..6,
        )
    ) {
        let tables: Vec<LineageTable> = tables
            .iter()
            .map(|rows| {
                let mut t = LineageTable::new(1, 1);
                for r in rows {
                    t.push_row(r);
                }
                t
            })
            .collect();
        let shape = [6usize];
        let jobs: Vec<provrc::CompressJob<'_>> = tables
            .iter()
            .map(|t| (t, &shape[..], &shape[..]))
            .collect();
        let fast = provrc::compress_batch_parallel(&jobs, Orientation::Backward);
        let slow: Vec<_> = tables
            .iter()
            .map(|t| compress_reference(t, &shape, &shape, Orientation::Backward))
            .collect();
        prop_assert_eq!(fast, slow);
    }
}

/// Deterministic (non-proptest) regression: a scatter table big enough to
/// take the radix-sort path must stay bit-identical to the ablation.
#[test]
fn radix_sized_scatter_parity() {
    let n = 9_000usize;
    let mut t = LineageTable::new(1, 1);
    for i in 0..n as i64 {
        let h = (i.wrapping_mul(2654435761) & i64::MAX) % n as i64;
        t.push_row(&[i, h]);
    }
    let fast = provrc::compress(&t, &[n], &[n], Orientation::Backward);
    let slow = compress_reference(&t, &[n], &[n], Orientation::Backward);
    assert_eq!(fast, slow);
    assert_eq!(fast.decompress().unwrap().row_set(), t.row_set());
}

/// Heuristic-mask pruning with a mix of constant (but live) and tracking
/// secondary attributes: most wide-relation mask projections dedupe, and
/// the surviving row *order* must still match the ablation's trailing
/// mask-0 sort exactly.
#[test]
fn heuristic_mask_order_parity_with_sparse_live_bits() {
    // 7 secondary attributes; only attributes 5 and 6 track the output
    // (live), the rest are constants (dead).
    let mut t = LineageTable::new(1, 7);
    for i in 0..12i64 {
        // Gaps on the output attribute prevent full merging, so several
        // rows survive and their order is observable.
        let b = i * 2;
        t.push_row(&[b, 9, 8, 7, 6, 5, b + 1, b + 2]);
    }
    let out_shape = [40usize];
    let in_shape = [40usize; 7];
    let fast = provrc::compress(&t, &out_shape, &in_shape, Orientation::Backward);
    let slow = compress_reference(&t, &out_shape, &in_shape, Orientation::Backward);
    assert_eq!(fast, slow);
}

/// What the storage layer keeps for an edge — its backward table — is the
/// reference's output for that orientation.
#[test]
fn stored_orientations_equal_the_reference() {
    // Paper Fig. 1(B): `B = numpy.sum(A, axis=1)` over a 3x2 input.
    let mut t = LineageTable::new(1, 2);
    for i in 0..3 {
        for j in 0..2 {
            t.push_row(&[i, i, j]);
        }
    }
    let mut storage = dslog::storage::StorageManager::new();
    storage.define_array("A", &[3, 2]).unwrap();
    storage.define_array("B", &[3]).unwrap();
    storage.ingest_lineage("A", "B", &t).unwrap();
    let stored = storage.stored_table("A", "B").unwrap();
    let backward = compress_reference(&t, &[3], &[3, 2], Orientation::Backward);
    assert_eq!(*stored, backward);
}

/// `assert_parity_of` outside a property run.
fn assert_parity_fixed(t: &LineageTable, out_shape: &[usize], in_shape: &[usize]) {
    assert_parity_of(t, out_shape, in_shape).unwrap();
}

/// Sorted input handed from the view to the arena mid-compression, in the
/// shapes an ingest batch brings.
#[test]
fn view_to_arena_handoff_parity() {
    // A 2+2 numpy hop (transpose): every step-1 pass finds the view in its
    // order and merges nothing; the first step-2 pass on the last output
    // axis keys on `a0 − b1`, which falls as `b1` rises, and needs a sort.
    let (h, w) = (9i64, 7i64);
    let mut transpose = LineageTable::new(2, 2);
    for i in 0..h {
        for j in 0..w {
            transpose.push_row(&[i, j, j, i]);
        }
    }
    assert_parity_fixed(
        &transpose,
        &[h as usize, w as usize],
        &[w as usize, h as usize],
    );

    // The same with a broadcast third input axis: the first step-1 pass
    // merges on the view, so the arena is written folded, and the passes
    // after it run packed.
    let mut broadcast = LineageTable::new(2, 3);
    for i in 0..h {
        for j in 0..w {
            for k in 0..3 {
                broadcast.push_row(&[i, j, j, i, k]);
            }
        }
    }
    assert_parity_fixed(
        &broadcast,
        &[h as usize, w as usize],
        &[w as usize, h as usize, 3],
    );

    // A scatter edge as an ingest batch draws it, collisions included:
    // step 1 runs on the view, step 2 builds the arena.
    let n = 600i64;
    let mut scatter = LineageTable::new(1, 1);
    for i in 0..n {
        scatter.push_row(&[i, (i * 7919 + i * i) % (n / 2)]);
    }
    assert_parity_fixed(&scatter, &[n as usize], &[n as usize / 2]);

    // Tables no pass touches: the view itself becomes the table.
    assert_parity_fixed(&LineageTable::new(1, 2), &[3], &[3, 3]);
    assert_parity_fixed(&LineageTable::from_rows(1, 2, &[&[2, 0, 1]]), &[3], &[3, 3]);
}

/// Sorted input whose passes the view is out of order for: each is first
/// tried as a merge of the rows against themselves shifted by the pass's
/// Δ, skipped when no row meets another, and only the last skipped pass
/// (if no pass ran after it) sorts, when the table is emitted.
#[test]
fn proven_no_op_passes_parity() {
    // A 2-D identity, as a numpy edge brings it: the step-2 passes on the
    // last output axis under masks `11` and `01` key on `a0 − b1`, fall
    // out of order and merge nothing; mask `10` folds the rows in place.
    let side = 200i64;
    let mut identity = LineageTable::with_capacity(2, 2, (side * side) as usize);
    for i in 0..side {
        for j in 0..side {
            identity.push_row(&[i, j, i, j]);
        }
    }
    let shape = [side as usize; 2];
    assert_parity_fixed(&identity, &shape, &shape);

    // No pass merges anything, so the rows leave in the order of the last
    // skipped pass's sort, and nothing else sorts them. `B[i] ← A[7i mod
    // n]` has no two rows `r`, `r + Δ` for any pass's Δ.
    let n = 50i64;
    let mut scatter = LineageTable::new(1, 1);
    let mut scatter_2d = LineageTable::new(2, 2);
    for i in 0..n {
        scatter.push_row(&[i, i * 7 % n]);
        for j in 0..4 {
            scatter_2d.push_row(&[i, j, (i * 7 + j) % n, 3 - j]);
        }
    }
    assert_parity_fixed(&scatter, &[n as usize], &[n as usize]);
    assert_parity_fixed(&scatter_2d, &[n as usize, 4], &[n as usize, 4]);
}

/// A row whose shift by a pass's Δ leaves the `i64` range has no partner.
/// Ingest refuses such coordinates, so `provrc::compress` is called
/// directly. The backward orientation keeps `i64::MAX` on the secondary
/// side, where no pass adds to it.
#[test]
fn shifted_rows_past_i64_max_have_no_partner() {
    let max = i64::MAX;
    let mut t = LineageTable::new(1, 2);
    for o in 0..4 {
        t.push_row(&[o, o, max - 3]);
        t.push_row(&[o, max - o, max]);
    }
    let shape = [max as usize];
    let (out_shape, in_shape) = (&shape[..], &[max as usize; 2][..]);
    let fast = provrc::compress(&t, out_shape, in_shape, Orientation::Backward);
    let reference = compress_reference(&t, out_shape, in_shape, Orientation::Backward);
    assert_eq!(fast, reference);
    assert_eq!(fast.decompress().unwrap().row_set(), t.row_set());
}
