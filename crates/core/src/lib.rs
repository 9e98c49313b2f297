//! # DSLog — fine-grained array lineage storage, compression, and querying
//!
//! A from-scratch Rust implementation of the system described in
//! *"Compression and In-Situ Query Processing for Fine-Grained Array
//! Lineage"* (Zhao & Krishnan, ICDE 2024).
//!
//! DSLog stores cell-level lineage relations between multidimensional
//! arrays, compresses them with the **ProvRC** algorithm ([`provrc`]),
//! answers forward and backward lineage queries **in situ** over the
//! compressed form ([`query`]), and **reuses** lineage across repeated
//! operation calls via operation signatures and index reshaping
//! ([`reuse`], [`provrc::reshape`]).
//!
//! ## Quick start
//!
//! ```
//! use dslog::api::{Dslog, TableCapture};
//! use dslog::table::LineageTable;
//!
//! let mut db = Dslog::new();
//! db.define_array("A", &[3, 2]).unwrap();
//! db.define_array("B", &[3]).unwrap();
//!
//! // Lineage of B = A.sum(axis=1): B[i] <- A[i, 0], A[i, 1].
//! let mut lineage = LineageTable::new(1, 2);
//! for i in 0..3 {
//!     for j in 0..2 {
//!         lineage.push_row(&[i, i, j]);
//!     }
//! }
//! db.register_operation(
//!     "sum_axis1",
//!     &["A"],
//!     &["B"],
//!     vec![Box::new(TableCapture::new(lineage))],
//!     &[],
//!     false,
//! )
//! .unwrap();
//!
//! // Backward query: which cells of A contributed to B[1]?
//! let result = db.prov_query(&["B", "A"], &[vec![1]]).unwrap();
//! assert!(result.cells.contains_cell(&[1, 0]));
//! assert!(result.cells.contains_cell(&[1, 1]));
//! assert!(!result.cells.contains_cell(&[0, 0]));
//! ```

#![forbid(unsafe_code)]

pub mod api;
pub mod error;
pub mod interval;
pub mod net;
mod par;
pub mod provrc;
pub mod query;
pub mod reuse;
pub mod service;
mod sort;
pub mod storage;
pub mod table;

pub use api::{Dslog, DslogConfig, OpenOptions};
pub use error::{DslogError, Result};
pub use interval::Interval;
pub use service::MaintenancePolicy;
pub use table::{BoxTable, Cell, CompressedTable, LineageTable, Orientation};
