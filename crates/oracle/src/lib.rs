//! The naive references the DSLog stack is checked against. Nothing here
//! ships: `dslog` and `dslog-cli` reach this crate only as a
//! dev-dependency (CI's static-analysis job checks `cargo tree -e normal`),
//! and only the bench harness links it into a binary.
//!
//! * [`query::reference`] — lineage queries as a nested loop over the
//!   *raw* relation (§V.A's natural-join semantics). Every in-situ answer,
//!   whatever the planner, merge or threading options, is held against
//!   this one oracle.
//! * [`provrc`] — ProvRC as the paper states it, over a `Vec` of row
//!   structs. The shipped columnar pipeline must produce the same bytes;
//!   it shares no pass code with this one (not even the mask order).
//! * [`boxes::merge_reference`] — the §V.B.3 row-reduction merge with a
//!   comparator sort per pass and a confirming round at the end.
//!   `BoxTable::merge`, which sorts packed integer keys and stops at its
//!   first proven fixpoint, must return the same boxes in the same order.
//!
//! The module paths mirror where the code sat in `dslog` before it moved
//! out (`dslog::query::reference`, `dslog::provrc::{range_encode,
//! relative}`, `dslog::table::boxes`). Built only on `dslog`'s public types.

pub mod boxes;
pub mod provrc;

/// Reference query semantics.
pub mod query {
    pub mod reference;
}
