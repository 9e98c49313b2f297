//! In-situ query processing over compressed lineage (paper §V).
//!
//! A lineage query walks a path `X1 → X2 → … → Xn`; each hop is a θ-join
//! between the current cell set (a [`BoxTable`](crate::table::BoxTable)) and the compressed lineage
//! table whose *primary* (absolute) side matches the query side of the hop.
//! Between hops the result is projected onto the next array's attributes
//! (built into the θ-join) and row-reduced with the merge step (§V.B.3) —
//! the `DSLog-NoMerge` ablation of Fig. 9 disables the latter.
//!
//! Hops are executed by [`QueryExec`]: it probes each table's cached sorted
//! interval index (binary search + bounded candidate scan) instead of
//! scanning every compressed row, short-circuits empty frontiers, and
//! reports per-hop [`HopStats`]. The index probe is the only access path;
//! answers are tested against the brute-force join over the raw relation
//! in `dslog-oracle`'s `query::reference` (a dev-dependency).

pub mod exec;
pub mod plan;

pub use exec::{Hop, HopStats, HopTable, QueryExec, QueryStats};
pub use plan::{PlanDecision, PlanReport};

/// Tuning knobs for query execution, chosen per call
/// ([`crate::Dslog::prov_query_opts`]); `prov_query` and the service run
/// with the defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOptions {
    /// Run the row-reduction merge after each hop (§V.B.3). Disabling this
    /// reproduces the paper's `DSLog-NoMerge` ablation.
    pub merge: bool,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self { merge: true }
    }
}
