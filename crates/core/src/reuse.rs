//! Lineage reuse via operation signatures (paper §VI).
//!
//! Three signature granularities map operation calls to stored lineage:
//!
//! * [`base_sig`](SigKind::Base) — same op name, same input array *contents*
//!   (identified by caller-provided content hashes), same args (the Lima
//!   strategy, §VI.A);
//! * [`dim_sig`](SigKind::Dim) — same op name, same input *shapes*, same
//!   args (§VI.B, "Lineage Extrapolation");
//! * [`gen_sig`](SigKind::Gen) — same op name and args, any shapes, served
//!   by instantiating an index-reshaped generalized table (§VI.B, Fig. 6).
//!
//! The automatic reuse predictor (§VI.C) stores temporary mappings on first
//! sight and promotes them to permanent after `m` further matching calls
//! whose freshly captured lineage agrees with the prediction (for `gen_sig`
//! the `m` calls must also have different shapes). The paper — and our
//! default — uses `m = 1`, which is what makes the `cross` misprediction
//! possible.

use crate::provrc::reshape;
use crate::table::{CompressedTable, Orientation};
use std::collections::HashMap;

/// An operation argument value; the part of the signature beyond arrays.
///
/// Floats are keyed by bit pattern (exactness over prettiness — signatures
/// must be `Eq`/`Hash`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ArgValue {
    /// Integer argument (axis numbers, window sizes, …).
    Int(i64),
    /// Float argument, stored as raw bits.
    FloatBits(u64),
    /// String argument (mode names, …).
    Str(String),
    /// Integer list argument (shapes, permutations, …).
    IntList(Vec<i64>),
}

impl ArgValue {
    /// Convenience constructor for floats.
    pub fn float(v: f64) -> Self {
        ArgValue::FloatBits(v.to_bits())
    }
}

// When the reuse layer materializes a **composite edge**: a θ-join of
// stored edges is itself an edge, so a multi-hop path the planner keeps
// seeing is compressed once into a real `CompressedTable`, registered in
// the storage manager keyed by the path, and served as a single probe on
// later queries (the multi-hop analogue of §VI's "store derived lineage,
// serve it instead of recomputing"). Ingesting into any member edge
// invalidates the composite; `QueryOptions::use_planner = false` turns
// composites off.

/// Planner sightings of a path before it is materialized.
pub(crate) const COMPOSITE_HIT_THRESHOLD: u32 = 3;

/// Cap on the first-array support volume enumerated during
/// materialization; a path whose hop-0 table covers more source cells is
/// marked unmaterializable instead.
pub(crate) const COMPOSITE_MAX_SUPPORT_CELLS: u128 = 1 << 16;

/// Cap on the joined relation's row count; a larger result is marked
/// unmaterializable instead of being compressed.
pub(crate) const COMPOSITE_MAX_ROWS: usize = 1 << 20;

/// Signature granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SigKind {
    /// Content-level match.
    Base,
    /// Shape-level match.
    Dim,
    /// Shape-independent match (index reshaping).
    Gen,
}

/// The key identifying one partial signature.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SigKey {
    op_name: String,
    args: Vec<ArgValue>,
    /// `Base`: content hashes; `Dim`: flattened shapes; `Gen`: empty.
    discriminator: Vec<u64>,
    kind: SigKind,
}

/// Everything a mapping stores: one backward-oriented compressed table per
/// (input, output) array pair, plus the shapes they were captured at.
#[derive(Debug, Clone)]
pub struct Mapping {
    /// Per (in_idx, out_idx) pair in row-major pair order.
    pub tables: Vec<CompressedTable>,
    /// Input shapes at capture time.
    pub in_shapes: Vec<Vec<usize>>,
    /// Output shapes at capture time.
    pub out_shapes: Vec<Vec<usize>>,
}

/// Predictor state for one signature key (§VI.C).
#[derive(Debug, Clone)]
enum SigState {
    /// Seen once; awaiting `m` confirmations.
    Pending {
        mapping: Mapping,
        confirmations: u32,
    },
    /// Validated; future calls may skip capture.
    Permanent(Mapping),
    /// Validation failed; never reuse under this key.
    NotReusable,
}

/// Result of consulting the reuse manager before capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReuseHit {
    /// Reused via content-level signature.
    Base,
    /// Reused via shape-level signature.
    Dim,
    /// Reused via generalized (reshaped) signature.
    Gen,
}

/// Running statistics, reported by the Table IX harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Calls served from a base signature.
    pub base_hits: u64,
    /// Calls served from a dim signature.
    pub dim_hits: u64,
    /// Calls served from a gen signature.
    pub gen_hits: u64,
    /// Calls that required fresh capture.
    pub captures: u64,
    /// Pending→Permanent promotions.
    pub promotions: u64,
    /// Pending→NotReusable demotions.
    pub demotions: u64,
}

/// The reuse manager: signature tables plus the automatic predictor.
/// `Clone` duplicates the full signature state (used by the service
/// layer's epoch snapshots, whose reuse tables are typically empty).
#[derive(Debug, Clone)]
pub struct ReuseManager {
    states: HashMap<SigKey, SigState>,
    /// Confirmations required before a mapping becomes permanent (paper m=1).
    m: u32,
    stats: ReuseStats,
}

impl Default for ReuseManager {
    fn default() -> Self {
        Self::new(1)
    }
}

impl ReuseManager {
    /// Manager with the given confirmation count `m` (§VI.C; paper uses 1).
    pub fn new(m: u32) -> Self {
        Self {
            states: HashMap::new(),
            m,
            stats: ReuseStats::default(),
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> ReuseStats {
        self.stats
    }

    fn key(
        op_name: &str,
        args: &[ArgValue],
        kind: SigKind,
        content_hashes: Option<&[u64]>,
        in_shapes: &[Vec<usize>],
    ) -> Option<SigKey> {
        let discriminator = match kind {
            SigKind::Base => content_hashes?.to_vec(),
            SigKind::Dim => {
                let mut d = Vec::new();
                for shape in in_shapes {
                    d.push(shape.len() as u64);
                    d.extend(shape.iter().map(|&x| x as u64));
                }
                d
            }
            SigKind::Gen => Vec::new(),
        };
        Some(SigKey {
            op_name: op_name.to_string(),
            args: args.to_vec(),
            discriminator,
            kind,
        })
    }

    /// Try to serve a call from stored signatures, most specific first.
    /// Returns the mapping (instantiated for `gen_sig`) on a hit.
    pub fn lookup(
        &mut self,
        op_name: &str,
        args: &[ArgValue],
        content_hashes: Option<&[u64]>,
        in_shapes: &[Vec<usize>],
        out_shapes: &[Vec<usize>],
    ) -> Option<(ReuseHit, Mapping)> {
        // base_sig
        if let Some(key) = Self::key(op_name, args, SigKind::Base, content_hashes, in_shapes) {
            if let Some(SigState::Permanent(mapping)) = self.states.get(&key) {
                self.stats.base_hits += 1;
                return Some((ReuseHit::Base, mapping.clone()));
            }
        }
        // dim_sig
        let dim_key = Self::key(op_name, args, SigKind::Dim, None, in_shapes).unwrap();
        if let Some(SigState::Permanent(mapping)) = self.states.get(&dim_key) {
            self.stats.dim_hits += 1;
            return Some((ReuseHit::Dim, mapping.clone()));
        }
        // gen_sig — instantiate at the call's shapes.
        let gen_key = Self::key(op_name, args, SigKind::Gen, None, in_shapes).unwrap();
        if let Some(SigState::Permanent(mapping)) = self.states.get(&gen_key) {
            if let Some(inst) = instantiate_mapping(mapping, in_shapes, out_shapes) {
                self.stats.gen_hits += 1;
                return Some((ReuseHit::Gen, inst));
            }
        }
        None
    }

    /// Record a freshly captured mapping and advance the predictor for all
    /// three signature granularities.
    pub fn observe(
        &mut self,
        op_name: &str,
        args: &[ArgValue],
        content_hashes: Option<&[u64]>,
        mapping: &Mapping,
    ) {
        self.stats.captures += 1;
        let in_shapes = &mapping.in_shapes;

        // base_sig: content equality implies lineage equality (assuming the
        // op is deterministic up to pseudo-randomness, which the paper's API
        // contract requires of op_args) — promote immediately.
        if let Some(key) = Self::key(op_name, args, SigKind::Base, content_hashes, in_shapes) {
            self.states
                .entry(key)
                .or_insert_with(|| SigState::Permanent(mapping.clone()));
        }

        // dim_sig
        let dim_key = Self::key(op_name, args, SigKind::Dim, None, in_shapes).unwrap();
        self.advance(dim_key, mapping, |stored, fresh| {
            mappings_equal(stored, fresh)
        });

        // gen_sig: the stored mapping is generalized; a confirming call must
        // have *different* shapes and instantiate to the fresh lineage.
        let gen_key = Self::key(op_name, args, SigKind::Gen, None, in_shapes).unwrap();
        self.advance_gen(gen_key, mapping);
    }

    fn advance(
        &mut self,
        key: SigKey,
        fresh: &Mapping,
        matches: impl Fn(&Mapping, &Mapping) -> bool,
    ) {
        match self.states.get_mut(&key) {
            None => {
                self.states.insert(
                    key,
                    SigState::Pending {
                        mapping: fresh.clone(),
                        confirmations: 0,
                    },
                );
            }
            Some(SigState::Pending {
                mapping,
                confirmations,
            }) => {
                if matches(mapping, fresh) {
                    *confirmations += 1;
                    if *confirmations >= self.m {
                        let promoted = mapping.clone();
                        self.states.insert(key, SigState::Permanent(promoted));
                        self.stats.promotions += 1;
                    }
                } else {
                    self.states.insert(key, SigState::NotReusable);
                    self.stats.demotions += 1;
                }
            }
            Some(SigState::Permanent(_)) | Some(SigState::NotReusable) => {}
        }
    }

    fn advance_gen(&mut self, key: SigKey, fresh: &Mapping) {
        match self.states.get_mut(&key) {
            None => {
                let generalized = generalize_mapping(fresh);
                self.states.insert(
                    key,
                    SigState::Pending {
                        mapping: generalized,
                        confirmations: 0,
                    },
                );
            }
            Some(SigState::Pending {
                mapping,
                confirmations,
            }) => {
                // Confirmation requires a different shape (§VI.C).
                if mapping.in_shapes == fresh.in_shapes {
                    return;
                }
                let predicted = instantiate_mapping(mapping, &fresh.in_shapes, &fresh.out_shapes);
                match predicted {
                    Some(p) if mappings_equal(&p, fresh) => {
                        *confirmations += 1;
                        if *confirmations >= self.m {
                            let promoted = mapping.clone();
                            self.states.insert(key, SigState::Permanent(promoted));
                            self.stats.promotions += 1;
                        }
                    }
                    _ => {
                        self.states.insert(key, SigState::NotReusable);
                        self.stats.demotions += 1;
                    }
                }
            }
            Some(SigState::Permanent(_)) | Some(SigState::NotReusable) => {}
        }
    }

    /// Whether a permanent mapping of the given kind exists for the op/args.
    pub fn has_permanent(&self, op_name: &str, args: &[ArgValue], kind: SigKind) -> bool {
        self.states.iter().any(|(k, v)| {
            k.op_name == op_name
                && k.args == args
                && k.kind == kind
                && matches!(v, SigState::Permanent(_))
        })
    }
}

/// Structural equality of mappings via decompressed relations (shape +
/// relation equality; orientation-insensitive).
fn mappings_equal(a: &Mapping, b: &Mapping) -> bool {
    if a.tables.len() != b.tables.len()
        || a.in_shapes != b.in_shapes
        || a.out_shapes != b.out_shapes
    {
        return false;
    }
    a.tables
        .iter()
        .zip(b.tables.iter())
        .all(|(x, y)| match (x.decompress(), y.decompress()) {
            (Ok(dx), Ok(dy)) => dx.row_set() == dy.row_set(),
            _ => false,
        })
}

/// Generalize every table in a mapping (index reshaping, §VI.B).
fn generalize_mapping(m: &Mapping) -> Mapping {
    Mapping {
        tables: m.tables.iter().map(reshape::generalize).collect(),
        in_shapes: m.in_shapes.clone(),
        out_shapes: m.out_shapes.clone(),
    }
}

/// Instantiate a generalized mapping at new shapes; `None` if any table
/// refuses (arity mismatch).
fn instantiate_mapping(
    m: &Mapping,
    in_shapes: &[Vec<usize>],
    out_shapes: &[Vec<usize>],
) -> Option<Mapping> {
    if in_shapes.len() != m.in_shapes.len() || out_shapes.len() != m.out_shapes.len() {
        return None;
    }
    // Pair order is row-major (in_idx major, out_idx minor), matching
    // the registration API.
    let n_out = out_shapes.len();
    let mut tables = Vec::with_capacity(m.tables.len());
    for (pair_idx, table) in m.tables.iter().enumerate() {
        let in_idx = pair_idx / n_out;
        let out_idx = pair_idx % n_out;
        match reshape::instantiate(table, &out_shapes[out_idx], &in_shapes[in_idx]) {
            Ok(t) => tables.push(t),
            Err(_) => return None,
        }
    }
    Some(Mapping {
        tables,
        in_shapes: in_shapes.to_vec(),
        out_shapes: out_shapes.to_vec(),
    })
}

/// Expose orientation for doc purposes: stored mapping tables are backward.
pub const MAPPING_ORIENTATION: Orientation = Orientation::Backward;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provrc::compress;
    use crate::table::LineageTable;

    fn elementwise_mapping(n: usize) -> Mapping {
        let mut t = LineageTable::new(1, 1);
        for i in 0..n as i64 {
            t.push_row(&[i, i]);
        }
        Mapping {
            tables: vec![compress(&t, &[n], &[n], Orientation::Backward)],
            in_shapes: vec![vec![n]],
            out_shapes: vec![vec![n]],
        }
    }

    /// Shape-dependent lineage mimicking `cross`: pattern differs by extent.
    fn crossish_mapping(n: usize) -> Mapping {
        let mut t = LineageTable::new(1, 1);
        if n == 3 {
            // all-to-all
            for i in 0..3 {
                for j in 0..3 {
                    t.push_row(&[i, j]);
                }
            }
        } else {
            // one-to-one (different pattern!)
            for i in 0..n as i64 {
                t.push_row(&[i, i]);
            }
        }
        Mapping {
            tables: vec![compress(&t, &[n], &[n], Orientation::Backward)],
            in_shapes: vec![vec![n]],
            out_shapes: vec![vec![n]],
        }
    }

    #[test]
    fn dim_sig_promotes_after_m_confirmations() {
        let mut r = ReuseManager::new(1);
        let args = vec![ArgValue::Int(0)];
        let m = elementwise_mapping(8);
        r.observe("neg", &args, None, &m);
        assert!(!r.has_permanent("neg", &args, SigKind::Dim));
        r.observe("neg", &args, None, &m);
        assert!(r.has_permanent("neg", &args, SigKind::Dim));
        let hit = r.lookup("neg", &args, None, &[vec![8]], &[vec![8]]);
        assert!(matches!(hit, Some((ReuseHit::Dim, _))));
    }

    #[test]
    fn gen_sig_needs_different_shapes() {
        let mut r = ReuseManager::new(1);
        let args = vec![];
        r.observe("neg", &args, None, &elementwise_mapping(8));
        // Same shape again: no gen confirmation.
        r.observe("neg", &args, None, &elementwise_mapping(8));
        assert!(!r.has_permanent("neg", &args, SigKind::Gen));
        // Different shape that matches the generalized prediction: promote.
        r.observe("neg", &args, None, &elementwise_mapping(13));
        assert!(r.has_permanent("neg", &args, SigKind::Gen));
        // Lookup at an unseen shape instantiates.
        let hit = r.lookup("neg", &args, None, &[vec![21]], &[vec![21]]);
        let (kind, mapping) = hit.expect("gen hit");
        assert_eq!(kind, ReuseHit::Gen);
        let expect = elementwise_mapping(21);
        assert!(mappings_equal(&mapping, &expect));
    }

    #[test]
    fn gen_sig_demoted_on_shape_dependence() {
        let mut r = ReuseManager::new(1);
        let args = vec![];
        r.observe("valdep", &args, None, &crossish_mapping(3));
        // Different shape whose true lineage deviates from the reshaped
        // prediction: predictor must mark the key not reusable.
        r.observe("valdep", &args, None, &crossish_mapping(5));
        assert!(!r.has_permanent("valdep", &args, SigKind::Gen));
        assert!(r.stats().demotions >= 1);
    }

    #[test]
    fn cross_misprediction_with_m_1() {
        // The paper's error: two differently-*sized* calls that happen to
        // share the pattern promote the mapping; a later size-2 call then
        // gets wrong lineage. With crossish, n=5 and n=7 share the
        // one-to-one pattern; n=3 breaks it.
        let mut r = ReuseManager::new(1);
        let args = vec![];
        r.observe("cross", &args, None, &crossish_mapping(5));
        r.observe("cross", &args, None, &crossish_mapping(7));
        assert!(r.has_permanent("cross", &args, SigKind::Gen));
        // Misprediction: lookup at n=3 yields the (wrong) one-to-one form.
        let (_, predicted) = r
            .lookup("cross", &args, None, &[vec![3]], &[vec![3]])
            .expect("permanent mapping serves the call");
        let truth = crossish_mapping(3);
        assert!(
            !mappings_equal(&predicted, &truth),
            "m=1 promoted a shape-dependent mapping — the paper's cross error"
        );
    }

    #[test]
    fn base_sig_promotes_immediately() {
        let mut r = ReuseManager::new(1);
        let args = vec![ArgValue::Str("x".into())];
        let m = elementwise_mapping(4);
        r.observe("op", &args, Some(&[0xdead]), &m);
        let hit = r.lookup("op", &args, Some(&[0xdead]), &[vec![4]], &[vec![4]]);
        assert!(matches!(hit, Some((ReuseHit::Base, _))));
        // Different content hash: no base hit (and dim still pending).
        let miss = r.lookup("op", &args, Some(&[0xbeef]), &[vec![4]], &[vec![4]]);
        assert!(miss.is_none());
    }

    #[test]
    fn different_args_are_different_signatures() {
        let mut r = ReuseManager::new(1);
        let m = elementwise_mapping(4);
        r.observe("roll", &[ArgValue::Int(1)], None, &m);
        r.observe("roll", &[ArgValue::Int(1)], None, &m);
        assert!(r.has_permanent("roll", &[ArgValue::Int(1)], SigKind::Dim));
        assert!(!r.has_permanent("roll", &[ArgValue::Int(2)], SigKind::Dim));
    }
}
