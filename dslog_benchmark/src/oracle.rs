//! The benchmark's own ground truth: lineage queries answered from the raw
//! rows the benchmark generated, by a plain relational join. It shares no
//! code with the system under test (not even `dslog::query::reference`): it
//! only reads `LineageTable::row`.
//!
//! A hop joins the frontier with the raw relation on the side the query
//! comes from and projects the other side. To keep verification affordable
//! after a million requests, each relation is sorted once per join side and
//! the join binary-searches it; the answer is that of the nested loop.

use crate::gen::RawEdge;
use crate::json::Value;
use dslog::table::LineageTable;
use std::cell::OnceCell;
use std::collections::BTreeSet;

pub type CellSet = BTreeSet<Vec<i64>>;

struct OracleEdge<'a> {
    in_name: &'a str,
    out_name: &'a str,
    table: &'a LineageTable,
    /// Row ids ordered by the `out` side, for backward hops.
    by_out: OnceCell<Vec<u32>>,
    /// Row ids ordered by the `in` side, for forward hops.
    by_in: OnceCell<Vec<u32>>,
}

pub struct Oracle<'a> {
    edges: Vec<OracleEdge<'a>>,
}

impl<'a> Oracle<'a> {
    pub fn new(edges: impl IntoIterator<Item = &'a RawEdge>) -> Self {
        Self {
            edges: edges
                .into_iter()
                .map(|e| OracleEdge {
                    in_name: &e.in_name,
                    out_name: &e.out_name,
                    table: &e.table,
                    by_out: OnceCell::new(),
                    by_in: OnceCell::new(),
                })
                .collect(),
        }
    }

    /// Cells of the last array of `path` linked to `cells` of the first.
    pub fn query(&self, path: &[&str], cells: &[Vec<i64>]) -> Result<CellSet, String> {
        let mut frontier: CellSet = cells.iter().cloned().collect();
        for hop in path.windows(2) {
            let (from, to) = (hop[0], hop[1]);
            // Stored as (in = to, out = from): the query walks backward.
            frontier = if let Some(e) = self.find(to, from) {
                join(
                    e.table,
                    &frontier,
                    true,
                    e.by_out.get_or_init(|| order(e.table, true)),
                )
            } else if let Some(e) = self.find(from, to) {
                join(
                    e.table,
                    &frontier,
                    false,
                    e.by_in.get_or_init(|| order(e.table, false)),
                )
            } else {
                return Err(format!("oracle has no edge between {from} and {to}"));
            };
        }
        Ok(frontier)
    }

    fn find(&self, in_name: &str, out_name: &str) -> Option<&OracleEdge<'a>> {
        self.edges
            .iter()
            .find(|e| e.in_name == in_name && e.out_name == out_name)
    }
}

/// The join side of a row: `out` attributes come first.
fn side(table: &LineageTable, row: usize, out_side: bool) -> &[i64] {
    let r = table.row(row);
    if out_side {
        &r[..table.out_arity()]
    } else {
        &r[table.out_arity()..]
    }
}

fn order(table: &LineageTable, by_out: bool) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..table.n_rows() as u32).collect();
    ids.sort_unstable_by(|&a, &b| {
        side(table, a as usize, by_out).cmp(side(table, b as usize, by_out))
    });
    ids
}

fn join(table: &LineageTable, frontier: &CellSet, from_out: bool, order: &[u32]) -> CellSet {
    let mut next = CellSet::new();
    for cell in frontier {
        let key = cell.as_slice();
        let start = order.partition_point(|&r| side(table, r as usize, from_out) < key);
        for &r in &order[start..] {
            if side(table, r as usize, from_out) != key {
                break;
            }
            next.insert(side(table, r as usize, !from_out).to_vec());
        }
    }
    next
}

/// Cells covered by a `query` response of the wire protocol:
/// `{"ok":true,…,"boxes":[[[lo,hi],…],…]}`.
pub fn cells_of_response(response: &Value) -> Result<CellSet, String> {
    if response.get("ok") != Some(&Value::Bool(true)) {
        return Err(format!("response is not ok: {}", response.compact()));
    }
    let boxes = response
        .get("boxes")
        .and_then(Value::as_arr)
        .ok_or("response has no boxes")?;
    let mut cells = CellSet::new();
    for b in boxes {
        let mut ranges = Vec::new();
        for ivl in b.as_arr().ok_or("box is not an array")? {
            match ivl.as_arr() {
                Some([lo, hi]) => ranges.push((
                    lo.as_f64().ok_or("bound is not a number")? as i64,
                    hi.as_f64().ok_or("bound is not a number")? as i64,
                )),
                _ => return Err("interval is not a [lo,hi] pair".to_string()),
            }
        }
        expand(&ranges, &mut Vec::new(), &mut cells);
    }
    Ok(cells)
}

fn expand(ranges: &[(i64, i64)], prefix: &mut Vec<i64>, out: &mut CellSet) {
    match ranges.split_first() {
        None => {
            out.insert(prefix.clone());
        }
        Some((&(lo, hi), rest)) => {
            for v in lo..=hi {
                prefix.push(v);
                expand(rest, prefix, out);
                prefix.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, EdgeKind};
    use crate::json;

    fn edge(in_name: &str, out_name: &str, rows: &[[i64; 2]]) -> RawEdge {
        let mut table = LineageTable::new(1, 1);
        for r in rows {
            table.push_row(r);
        }
        RawEdge {
            kind: EdgeKind::Regular,
            in_name: in_name.into(),
            out_name: out_name.into(),
            in_shape: vec![8],
            out_shape: vec![8],
            table,
        }
    }

    #[test]
    fn joins_forward_backward_and_across_hops() {
        // B[0] <- A[1], A[2]; B[1] <- A[2].   C[5] <- B[0]; C[6] <- B[1].
        let ab = edge("A", "B", &[[0, 1], [0, 2], [1, 2]]);
        let bc = edge("B", "C", &[[5, 0], [6, 1]]);
        let oracle = Oracle::new([&ab, &bc]);
        let set = |cells: &[i64]| cells.iter().map(|&c| vec![c]).collect::<CellSet>();
        assert_eq!(oracle.query(&["B", "A"], &[vec![0]]).unwrap(), set(&[1, 2]));
        assert_eq!(oracle.query(&["A", "B"], &[vec![2]]).unwrap(), set(&[0, 1]));
        assert_eq!(
            oracle.query(&["C", "B", "A"], &[vec![6]]).unwrap(),
            set(&[2])
        );
        assert_eq!(
            oracle.query(&["A", "B", "C"], &[vec![1]]).unwrap(),
            set(&[5])
        );
        assert_eq!(oracle.query(&["B", "A"], &[vec![7]]).unwrap(), set(&[]));
        assert!(oracle.query(&["A", "C"], &[vec![0]]).is_err());
    }

    #[test]
    fn agrees_with_the_library_on_a_generated_chain() {
        let edges = gen::chain_edges("C", 7, 256, 9);
        let mut db = dslog::Dslog::options().build().unwrap();
        for i in 0..=7 {
            db.define_array(&gen::chain_name("C", i), &[256]).unwrap();
        }
        for e in &edges {
            let capture = dslog::api::TableCapture::new(e.table.clone());
            db.add_lineage(&e.in_name, &e.out_name, &capture).unwrap();
        }
        let oracle = Oracle::new(&edges);
        let mut traffic = gen::ChainTraffic::new("C", 7, 256, 9);
        for _ in 0..200 {
            let q = traffic.next_query();
            let got = db.prov_query(&q.path_refs(), &q.cells).unwrap();
            let want = oracle.query(&q.path_refs(), &q.cells).unwrap();
            assert_eq!(got.cells.cell_set(), want, "{q:?}");
        }
    }

    #[test]
    fn reads_wire_responses() {
        let v = json::parse(
            "{\"ok\":true,\"hops\":1,\"cells\":5,\"boxes\":[[[1,2],[7,8]],[[4,4],[0,0]]]}",
        )
        .unwrap();
        let cells = cells_of_response(&v).unwrap();
        let want: CellSet = [[1, 7], [1, 8], [2, 7], [2, 8], [4, 0]]
            .iter()
            .map(|c| c.to_vec())
            .collect();
        assert_eq!(cells, want);
        let err = json::parse("{\"ok\":false,\"error\":\"nope\"}").unwrap();
        assert!(cells_of_response(&err).is_err());
    }
}
