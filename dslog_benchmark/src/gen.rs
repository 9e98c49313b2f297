//! Input generators. Everything here is a pure function of its arguments:
//! the same seed gives the same raw lineage and the same request stream.
//!
//! What a seed changes is *content* (which cells a scatter edge links, which
//! cells and paths a client asks for), never *shape* (array sizes, edge
//! kinds, the share of each request kind). Metrics of two seeds are therefore
//! comparable, which the driver's spread check relies on.

use crate::rng::Rng;
use dslog::table::LineageTable;
use std::sync::Arc;

/// Compressibility regime of a raw edge (paper §IV, §VII.B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// One-to-one or sliding window: ProvRC folds it into about one row.
    Regular,
    /// Pseudo-random reads: about one compressed row per raw row.
    Scatter,
    /// Lineage of one operation of a random numpy pipeline.
    Numpy,
}

/// One uncompressed lineage relation between two named arrays, as the
/// benchmark generated it. The oracle answers from these rows.
#[derive(Debug, Clone)]
pub struct RawEdge {
    pub kind: EdgeKind,
    pub in_name: String,
    pub out_name: String,
    pub in_shape: Vec<usize>,
    pub out_shape: Vec<usize>,
    /// Rows are `out` attributes first, then `in` attributes.
    pub table: LineageTable,
}

impl RawEdge {
    pub fn rows(&self) -> usize {
        self.table.n_rows()
    }

    /// Bytes of the raw relation: `rows × arity × 8`.
    pub fn raw_bytes(&self) -> u64 {
        (self.table.n_rows() * self.table.arity() * 8) as u64
    }
}

/// `B[i] <- A[i]` over `cells` cells.
pub fn one_to_one(cells: usize) -> LineageTable {
    dslog_workloads::edges::one_to_one(cells).0
}

/// `B[i] <- A[i-1], A[i], A[i+1]`, clipped at the ends, over `cells` cells.
pub fn convolution(cells: usize) -> LineageTable {
    let n = cells as i64;
    let mut t = LineageTable::with_capacity(1, 1, cells * 3);
    for i in 0..n {
        for j in (i - 1).max(0)..=(i + 1).min(n - 1) {
            t.push_row(&[i, j]);
        }
    }
    t
}

/// `B[i] <- A[h(i)]` for `rows` output cells of arrays with `cells` cells,
/// `h` drawn from `rng`: nothing for ProvRC to merge.
pub fn scatter(rows: usize, cells: usize, rng: &mut Rng) -> LineageTable {
    let mut t = LineageTable::with_capacity(1, 1, rows);
    for i in 0..rows as i64 {
        t.push_row(&[i, rng.below(cells as u64) as i64]);
    }
    t
}

/// Name of array `i` of a chain with the given prefix.
pub fn chain_name(prefix: &str, i: usize) -> String {
    format!("{prefix}{i}")
}

/// A chain `P0 -> P1 -> … -> Pn` of 1-D arrays with `cells` cells each. Edge
/// `k` links `Pk` (in) to `Pk+1` (out) and its kind cycles one-to-one,
/// convolution, scatter.
pub fn chain_edges(prefix: &str, n_edges: usize, cells: usize, seed: u64) -> Vec<RawEdge> {
    (0..n_edges)
        .map(|k| {
            let (kind, table) = match k % 3 {
                0 => (EdgeKind::Regular, one_to_one(cells)),
                1 => (EdgeKind::Regular, convolution(cells)),
                _ => {
                    let mut rng = Rng::stream(seed, &format!("{prefix}-scatter-{k}"));
                    (EdgeKind::Scatter, scatter(cells, cells, &mut rng))
                }
            };
            RawEdge {
                kind,
                in_name: chain_name(prefix, k),
                out_name: chain_name(prefix, k + 1),
                in_shape: vec![cells],
                out_shape: vec![cells],
                table,
            }
        })
        .collect()
}

/// One lineage query: a path of array names and the cells of its first array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Shared: a request stream repeats a few paths, and cloning one must
    /// not cost an allocation per array name.
    pub path: Arc<[String]>,
    pub cells: Vec<Vec<i64>>,
}

impl Query {
    /// The request line of the wire protocol, newline included.
    pub fn wire(&self) -> String {
        let mut line = String::with_capacity(32 + self.cells.len() * 8);
        line.push_str("query ");
        line.push_str(&self.path.join(","));
        line.push(' ');
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                line.push(';');
            }
            for (j, v) in cell.iter().enumerate() {
                if j > 0 {
                    line.push(',');
                }
                line.push_str(&v.to_string());
            }
        }
        line.push('\n');
        line
    }

    pub fn path_refs(&self) -> Vec<&str> {
        self.path.iter().map(String::as_str).collect()
    }

    pub fn hops(&self) -> usize {
        self.path.len() - 1
    }
}

/// Share of 3-hop requests in the chain traffic, in percent. Well off 50 so
/// the median of the mix sits inside the 1-hop mode and does not jump
/// between modes from run to run.
pub const THREE_HOP_PERCENT: u64 = 30;

/// The seeded request stream of `serve_point` and of `mixed_serve`'s reader:
/// 1-hop queries over every edge in both directions, and 3-hop queries over
/// four fixed paths that therefore repeat (and so become composite edges).
/// Each query carries 1 to 8 cells drawn uniformly.
#[derive(Debug, Clone)]
pub struct ChainTraffic {
    rng: Rng,
    cells: u64,
    /// The 1-hop paths: every edge, forward and backward.
    single: Vec<Arc<[String]>>,
    hot: Vec<Arc<[String]>>,
}

fn chain_path(prefix: &str, start: usize, hops: usize, forward: bool) -> Arc<[String]> {
    (0..=hops)
        .map(|h| chain_name(prefix, if forward { start + h } else { start - h }))
        .collect()
}

impl ChainTraffic {
    pub fn new(prefix: &str, n_edges: usize, cells: usize, seed: u64) -> Self {
        assert!(n_edges >= 7, "the hot paths need a chain of 7 edges");
        // Two hot paths walk backward (towards lower indices), two forward.
        let hot = [(3, false), (n_edges, false), (0, true), (n_edges - 3, true)]
            .iter()
            .map(|&(start, forward)| chain_path(prefix, start, 3, forward))
            .collect();
        let single = (0..n_edges)
            .flat_map(|edge| {
                [
                    chain_path(prefix, edge, 1, true),
                    chain_path(prefix, edge + 1, 1, false),
                ]
            })
            .collect();
        Self {
            rng: Rng::stream(seed, "chain-traffic"),
            cells: cells as u64,
            single,
            hot,
        }
    }

    /// The 1-hop paths of the mix.
    pub fn single_paths(&self) -> &[Arc<[String]>] {
        &self.single
    }

    /// The 3-hop paths of the mix.
    pub fn hot_paths(&self) -> &[Arc<[String]>] {
        &self.hot
    }

    pub fn next_query(&mut self) -> Query {
        let pool = if self.rng.below(100) < THREE_HOP_PERCENT {
            &self.hot
        } else {
            &self.single
        };
        let path = Arc::clone(&pool[self.rng.below(pool.len() as u64) as usize]);
        let n_cells = 1 + self.rng.below(8);
        let cells = (0..n_cells)
            .map(|_| vec![self.rng.below(self.cells) as i64])
            .collect();
        Query { path, cells }
    }
}

/// The cell at row-major position `pos` of an array of the given shape.
pub fn cell_at(shape: &[usize], mut pos: usize) -> Vec<i64> {
    let mut cell = vec![0i64; shape.len()];
    for (slot, &dim) in cell.iter_mut().zip(shape).rev() {
        *slot = (pos % dim) as i64;
        pos /= dim;
    }
    cell
}

/// `count` consecutive cells in row-major order starting at a random
/// position: the "random range" queries of the paper's Fig. 9.
pub fn cell_range(shape: &[usize], count: usize, rng: &mut Rng) -> Vec<Vec<i64>> {
    let total: usize = shape.iter().product();
    let count = count.min(total);
    let start = rng.below((total - count + 1) as u64) as usize;
    (start..start + count).map(|p| cell_at(shape, p)).collect()
}

/// The inline-rows form of the wire protocol's `ingest` request.
pub fn ingest_wire(edge: &RawEdge) -> String {
    let mut line = String::with_capacity(32 + edge.rows() * 12);
    line.push_str("ingest ");
    line.push_str(&edge.in_name);
    line.push(' ');
    line.push_str(&edge.out_name);
    line.push(' ');
    for (i, row) in edge.table.rows().enumerate() {
        if i > 0 {
            line.push(';');
        }
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                line.push(',');
            }
            line.push_str(&v.to_string());
        }
    }
    line.push('\n');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::fnv1a;

    fn traffic_hash(seed: u64) -> u64 {
        let mut t = ChainTraffic::new("C", 7, 4096, seed);
        (0..2000).fold(0, |h, _| fnv1a(h, t.next_query().wire().as_bytes()))
    }

    #[test]
    fn same_seed_same_request_bytes_other_seed_differs() {
        assert_eq!(traffic_hash(11), traffic_hash(11));
        assert_ne!(traffic_hash(11), traffic_hash(12));
    }

    #[test]
    fn same_seed_same_edges_other_seed_differs() {
        let hash = |seed| {
            chain_edges("C", 7, 512, seed).iter().fold(0, |h, e| {
                e.table.rows().fold(h, |h, row| {
                    row.iter().fold(h, |h, v| fnv1a(h, &v.to_le_bytes()))
                })
            })
        };
        assert_eq!(hash(5), hash(5));
        assert_ne!(hash(5), hash(6));
    }

    #[test]
    fn traffic_keeps_its_shape_across_seeds() {
        for seed in [1, 2, 3] {
            let mut t = ChainTraffic::new("C", 7, 4096, seed);
            let three_hop = (0..20_000).filter(|_| t.next_query().hops() == 3).count();
            let share = three_hop as f64 / 20_000.0;
            assert!((share - 0.30).abs() < 0.02, "3-hop share {share}");
        }
    }

    #[test]
    fn cells_and_wire_forms() {
        assert_eq!(cell_at(&[3, 4], 7), vec![1, 3]);
        let q = Query {
            path: vec!["B".to_string(), "A".to_string()].into(),
            cells: vec![vec![1, 3], vec![2, 0]],
        };
        assert_eq!(q.wire(), "query B,A 1,3;2,0\n");
        let mut rng = Rng::stream(1, "cells");
        let range = cell_range(&[3, 4], 5, &mut rng);
        assert_eq!(range.len(), 5);
        assert!(range.windows(2).all(|w| w[0] < w[1]));
    }
}
