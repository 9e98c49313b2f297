//! The five workloads. Each generates its inputs from the seed, sets up
//! (several times, for a steady `setup_s`), runs the fixed operation count
//! of its timed phase, checks what the system answered against the oracle,
//! and hands back its metrics.

mod ingest_commit;
mod pipeline_query;
mod reopen;
mod serve;

use crate::common::{cpu_steal_s, Ctx, Outcome};

pub fn run(ctx: &Ctx) -> Option<Outcome> {
    let steal_before = cpu_steal_s();
    let mut outcome = match ctx.workload.as_str() {
        "serve_point" => serve::run(ctx, false),
        "mixed_serve" => serve::run(ctx, true),
        "pipeline_query" => pipeline_query::run(ctx),
        "ingest_commit" => ingest_commit::run(ctx),
        "reopen" => reopen::run(ctx),
        _ => return None,
    };
    outcome.steal_s = cpu_steal_s() - steal_before;
    if ctx.trace {
        let share = outcome.failures.count as f64 / outcome.attempted.max(1) as f64;
        outcome.metrics.set("gen.failed_share", share);
    }
    Some(outcome)
}
