//! The ordered worker pool: prepare items on `workers` threads, the
//! calling thread among them, and commit them in input order on the
//! calling thread.
//!
//! Both parallel paths run on it. A campaign prepares whole units (the
//! test, keys, store lookups, one inline check, the row judgement) and
//! commits them in corpus order; a check split over workers prepares
//! ranges of pre-executions and commits their tallies in index order.
//! Committing in input order is what keeps every report, counter and
//! budget stop identical at any worker count.
//!
//! The pool is hand-rolled on `std::thread::scope` + `std::sync::mpsc`:
//! this workspace builds with zero external dependencies.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex, PoisonError};
use std::thread;

/// Items prepared ahead of the commit cursor, per worker thread: deep
/// enough that a slow item at the cursor does not leave the workers
/// idle behind it (4 per worker made contended-twin campaigns 1.7×
/// slower), shallow enough that the items in flight stay small next to
/// a simulator-bound campaign's memory.
const WINDOW_PER_WORKER: usize = 16;

/// Run `prepare` over `items` on `workers` threads and hand each item
/// with its prepared value to `commit` on the calling thread, strictly
/// in input order, until `commit` returns `Ok(false)` (stop) or an
/// error. At most `WINDOW_PER_WORKER` × `workers` items are in flight.
/// Each thread builds its own state with `init` once and lends it to
/// every `prepare` it runs, so per-thread caches survive from one item
/// to the next. A panic in `prepare` reaches `commit` as
/// `Err(payload)`; the thread keeps its state and goes on. With one
/// worker every call runs inline and no thread is spawned.
///
/// The calling thread is one of the `workers`: it spawns `workers - 1`
/// threads, and whenever the item at the commit cursor is not ready it
/// takes the oldest queued item and prepares it itself (building its
/// state the first time), or waits for a result when the queue is empty
/// or a worker is just taking from it. It commits every ready item
/// before it takes another.
///
/// # Errors
///
/// The first error `commit` returns.
pub fn prepare_in_order<T: Send, S, P: Send, E>(
    items: impl Iterator<Item = T>,
    workers: usize,
    init: impl Fn() -> S + Sync,
    prepare: impl Fn(&mut S, &T) -> P + Sync,
    mut commit: impl FnMut(T, thread::Result<P>) -> Result<bool, E>,
) -> Result<(), E> {
    let prepare = |state: &mut S, item: &T| catch_unwind(AssertUnwindSafe(|| prepare(state, item)));
    if workers <= 1 {
        let mut state = init();
        for item in items {
            let prepared = prepare(&mut state, &item);
            if !commit(item, prepared)? {
                break;
            }
        }
        return Ok(());
    }
    let (job_tx, job_rx) = mpsc::channel::<(usize, T)>();
    let (done_tx, done_rx) = mpsc::channel::<(usize, T, thread::Result<P>)>();
    // An idle worker parks in `recv` holding this lock; the calling
    // thread only ever tries it.
    let job_rx = Mutex::new(job_rx);
    let stopped = AtomicBool::new(false);
    thread::scope(|s| {
        for _ in 1..workers {
            let (job_rx, stopped, init, prepare) = (&job_rx, &stopped, &init, &prepare);
            let done_tx = done_tx.clone();
            s.spawn(move || {
                let mut state = init();
                loop {
                    let job = job_rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                    let Ok((seq, item)) = job else { break };
                    if stopped.load(Ordering::Relaxed) {
                        break;
                    }
                    let prepared = prepare(&mut state, &item);
                    if done_tx.send((seq, item, prepared)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(done_tx);
        // Dropped when this closure returns (or unwinds), which lets
        // every worker's `recv` fail once the queue is drained.
        let job_tx = job_tx;
        let mut items = items.fuse();
        let window = WINDOW_PER_WORKER * workers;
        // The calling thread's own state, built the first time it helps.
        let mut own = None;
        // `ready[k]` holds item `next + k` once it is prepared.
        let mut ready: VecDeque<Option<(T, thread::Result<P>)>> = VecDeque::new();
        let (mut sent, mut next) = (0usize, 0usize);
        let result = loop {
            while sent - next < window {
                let Some(item) = items.next() else { break };
                job_tx.send((sent, item)).expect("the job queue outlives the scope");
                sent += 1;
            }
            if next == sent {
                break Ok(());
            }
            while let Ok((seq, item, prepared)) = done_rx.try_recv() {
                fill(&mut ready, seq - next, (item, prepared));
            }
            if !matches!(ready.front(), Some(Some(_))) {
                // The cursor's item is not ready: prepare the oldest queued
                // item here, or wait for a worker's.
                let job = job_rx.try_lock().ok().and_then(|jobs| jobs.try_recv().ok());
                let (seq, item, prepared) = match job {
                    Some((seq, item)) => {
                        let prepared = prepare(own.get_or_insert_with(&init), &item);
                        (seq, item, prepared)
                    }
                    None => done_rx.recv().expect("every worker returns each job it takes"),
                };
                fill(&mut ready, seq - next, (item, prepared));
                continue;
            }
            let (item, prepared) = ready.pop_front().flatten().expect("front slot is filled");
            next += 1;
            match commit(item, prepared) {
                Ok(true) => {}
                Ok(false) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        stopped.store(true, Ordering::Relaxed);
        result
    })
}

/// Put `value` in `ready[slot]`, growing `ready` to reach it.
fn fill<V>(ready: &mut VecDeque<Option<V>>, slot: usize, value: V) {
    if ready.len() <= slot {
        ready.resize_with(slot + 1, || None);
    }
    ready[slot] = Some(value);
}
