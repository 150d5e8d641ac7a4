//! The ordered pool: input-order commits at any worker count, per-worker
//! state, early stops, contained panics.

use lkmm_exec::pool::prepare_in_order;
use std::convert::Infallible;

/// Commit `0..n` prepared on `workers` threads, stopping after
/// `stop_at` commits; returns what was committed.
fn committed(n: usize, workers: usize, stop_at: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let Ok(()) = prepare_in_order(
        0..n,
        workers,
        || 0usize,
        |seen, &i| {
            *seen += 1;
            (i, *seen)
        },
        |i, prepared| -> Result<bool, Infallible> {
            let (j, seen) = prepared.unwrap();
            assert_eq!(i, j, "each item arrives with its own prepared value");
            out.push((i, seen));
            Ok(out.len() < stop_at)
        },
    );
    out
}

#[test]
fn commits_in_input_order_at_any_worker_count() {
    for workers in [1, 2, 8] {
        let out = committed(100, workers, usize::MAX);
        let order: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>(), "workers={workers}");
    }
}

#[test]
fn worker_state_lives_across_items() {
    // Inline, one state prepares everything; its counter climbs.
    let inline = committed(10, 1, usize::MAX);
    assert_eq!(inline.last(), Some(&(9, 10)));
    // Pooled, the per-worker counters add up to every item.
    let pooled = committed(64, 4, usize::MAX);
    assert!(pooled.iter().all(|&(_, seen)| seen >= 1));
}

#[test]
fn commit_can_stop_the_pool_early() {
    for workers in [1, 2] {
        assert_eq!(committed(1000, workers, 5).len(), 5, "workers={workers}");
    }
}

#[test]
fn a_panic_in_prepare_reaches_commit_and_the_worker_goes_on() {
    for workers in [1, 2] {
        let mut outcomes = Vec::new();
        let Ok(()) = prepare_in_order(
            0..6,
            workers,
            || (),
            |(), &i| {
                assert!(i != 3, "deliberate panic preparing item 3");
                i
            },
            |_, prepared| -> Result<bool, Infallible> {
                outcomes.push(prepared.ok());
                Ok(true)
            },
        );
        assert_eq!(outcomes, [Some(0), Some(1), Some(2), None, Some(4), Some(5)]);
    }
}

#[test]
fn commit_errors_end_the_run() {
    let result = prepare_in_order(
        0..50,
        2,
        || (),
        |(), &i| i,
        |i, _| {
            if i == 7 {
                Err(i)
            } else {
                Ok(true)
            }
        },
    );
    assert_eq!(result, Err(7));
}
