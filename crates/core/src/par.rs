//! The one scoped fan-out in `dslog`: every place the library runs work on
//! more than one thread goes through [`map`], sized by [`workers_for`].
//!
//! A site earns a call here with a measured crossover (README, "Where
//! DSLog uses threads"): it names one grain constant — the work below
//! which a second thread costs more than it saves — and derives its worker
//! count from its own input, so there is nothing for a caller to tune.
//! `cargo xtask lint` (`raw-scope`) keeps `std::thread::scope` out of the
//! rest of the library.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Workers for `work` units when one worker should have at least `grain`
/// of them: `work / grain`, capped by the hardware threads, at least 1.
pub(crate) fn workers_for(work: usize, grain: usize) -> usize {
    match work / grain {
        // Asking for the hardware threads reads cgroup files on Linux: tens
        // of microseconds, which a one-edge ingest would pay on every call.
        0 | 1 => 1,
        wanted => std::thread::available_parallelism().map_or(1, |n| n.get().min(wanted)),
    }
}

/// `f(0), f(1), …, f(n_items - 1)`, in index order, computed by up to
/// `workers` threads (never more than there are items).
///
/// The caller is one of the workers; the rest are scoped threads, joined
/// before this returns. Items are handed out one at a time by a shared
/// counter, so skewed item costs stay balanced. `workers <= 1` runs inline
/// and spawns nothing. A panic in `f` on any worker is re-raised here with
/// its original payload once every worker has stopped.
pub(crate) fn map<T: Send>(
    n_items: usize,
    workers: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let workers = workers.min(n_items);
    if workers <= 1 {
        return (0..n_items).map(f).collect();
    }
    // Relaxed: the counter only hands out distinct indices; results reach
    // the caller through `join`, which synchronizes.
    let next = AtomicUsize::new(0);
    let drain = || {
        let mut done = Vec::new();
        loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            if idx >= n_items {
                break done;
            }
            done.push((idx, f(idx)));
        }
    };
    let mut done = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(drain)).collect();
        let mut done = drain();
        for handle in spawned {
            match handle.join() {
                Ok(part) => done.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    // Every index was handed out exactly once.
    done.sort_unstable_by_key(|(idx, _)| *idx);
    done.into_iter().map(|(_, item)| item).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_index_order_with_more_workers_than_items() {
        assert_eq!(map(3, 8, |i| i * 10), vec![0, 10, 20]);
        assert_eq!(map(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn results_keep_index_order_under_skewed_item_cost() {
        // Item 0 is by far the slowest: the other workers finish every
        // later item first, and the result must still lead with it.
        let out = map(16, 3, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i * i
        });
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn one_worker_runs_inline() {
        let caller = std::thread::current().id();
        for workers in [0, 1] {
            let ids = map(5, workers, |_| std::thread::current().id());
            assert!(ids.iter().all(|id| *id == caller), "workers = {workers}");
        }
        // One item never needs a second thread, whatever was asked for.
        assert_eq!(map(1, 4, |_| std::thread::current().id()), vec![caller]);
    }

    #[test]
    fn a_panicking_item_is_re_raised_on_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            map(8, 3, |i| {
                if i == 5 {
                    panic!("item five");
                }
                i
            })
        });
        let payload = caught.expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item five"));
    }

    #[test]
    fn workers_for_sizes_from_the_work() {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(workers_for(0, 100), 1);
        assert_eq!(workers_for(99, 100), 1);
        assert_eq!(workers_for(199, 100), 1);
        assert_eq!(workers_for(200, 100), hw.min(2));
        assert_eq!(workers_for(usize::MAX, 100), hw);
    }
}
