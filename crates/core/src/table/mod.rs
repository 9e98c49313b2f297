//! Relational representations of lineage.
//!
//! * [`lineage`] — the uncompressed relation `R(b1..bl, a1..am)` of §III.B.
//! * [`boxes`] — tables of interval boxes (queries `Q'` and θ-join results).
//! * [`compressed`] — the ProvRC-compressed relation of §IV, each column
//!   held as narrow as its cells allow (`column`).
//! * [`index`] — sorted interval indexes over a compressed table's primary
//!   columns (binary-search probes for the in-situ query engine).

pub mod boxes;
pub(crate) mod column;
pub mod compressed;
pub mod index;
pub mod lineage;

pub use boxes::BoxTable;
pub use compressed::{Cell, CompressedTable, Orientation};
pub use index::TableIndex;
pub use lineage::LineageTable;
