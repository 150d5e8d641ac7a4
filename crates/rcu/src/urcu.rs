//! A runtime implementation of Figure 15: userspace RCU on real threads.
//!
//! This is the same algorithm the paper verifies (Desnoyers et al.,
//! "User-Level Implementations of Read-Copy Update", as used by LTTng),
//! transcribed to Rust atomics with `SeqCst` fences standing in for
//! `smp_mb()`. Readers are wait-free; `synchronize_rcu` waits for every
//! pre-existing read-side critical section to complete.

use std::sync::Mutex;
use std::sync::atomic::{fence, AtomicUsize, Ordering};

/// `GP_PHASE` bit of the grace-period counter (Figure 15, line 1).
const GP_PHASE: usize = 0x10000;
/// Mask of the nesting counter bits (Figure 15, line 2).
const CS_MASK: usize = 0x0ffff;

/// Userspace RCU domain for up to `MAX_THREADS` registered reader threads.
///
/// Thread ids are assigned by the caller (0-based, dense). Readers call
/// [`Urcu::read_lock`]/[`Urcu::read_unlock`] (or use the RAII
/// [`Urcu::read_guard`]); updaters call [`Urcu::synchronize_rcu`], which
/// returns only after every critical section that was running when it was
/// called has finished — the *fundamental law of RCU*.
///
/// # Examples
///
/// ```
/// use lkmm_rcu::Urcu;
///
/// let rcu = Urcu::new(2);
/// {
///     let _guard = rcu.read_guard(0); // thread 0's critical section
/// } // dropped: section closed
/// rcu.synchronize_rcu(); // no readers: returns immediately
/// ```
pub struct Urcu {
    /// `rc[i]`: per-thread nesting counter plus phase bit (line 4).
    rc: Vec<AtomicUsize>,
    /// Grace-period control variable (line 5).
    gc: AtomicUsize,
    /// Serialises grace periods (line 6).
    gp_lock: Mutex<()>,
}

impl Urcu {
    /// A new RCU domain for `max_threads` reader threads.
    ///
    /// # Panics
    ///
    /// Panics if `max_threads` is 0.
    pub fn new(max_threads: usize) -> Self {
        assert!(max_threads > 0, "need at least one thread slot");
        Urcu {
            rc: (0..max_threads).map(|_| AtomicUsize::new(0)).collect(),
            gc: AtomicUsize::new(1),
            gp_lock: Mutex::new(()),
        }
    }

    /// Number of registered reader slots.
    pub fn max_threads(&self) -> usize {
        self.rc.len()
    }

    /// Enter a read-side critical section (Figure 15, lines 8–18).
    /// Nesting is supported up to `CS_MASK` levels.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range or nesting overflows the counter.
    pub fn read_lock(&self, tid: usize) {
        let tmp = self.rc[tid].load(Ordering::Relaxed); // line 10
        if tmp & CS_MASK == 0 {
            // line 13: copy the current phase.
            self.rc[tid].store(self.gc.load(Ordering::Relaxed), Ordering::Relaxed);
            fence(Ordering::SeqCst); // line 14: smp_mb()
        } else {
            assert!(tmp & CS_MASK < CS_MASK, "RSCS nesting overflow");
            self.rc[tid].store(tmp + 1, Ordering::Relaxed); // line 16
        }
    }

    /// Leave a read-side critical section (Figure 15, lines 20–25).
    ///
    /// # Panics
    ///
    /// Panics if the thread is not inside a critical section.
    pub fn read_unlock(&self, tid: usize) {
        fence(Ordering::SeqCst); // line 23: smp_mb()
        let val = self.rc[tid].load(Ordering::Relaxed);
        assert!(val & CS_MASK != 0, "rcu_read_unlock without rcu_read_lock");
        self.rc[tid].store(val - 1, Ordering::Relaxed); // line 24
    }

    /// Leave every read-side critical section thread `tid` is inside, as
    /// a reader that stops for good must, or grace periods wait forever.
    pub fn leave_read_sections(&self, tid: usize) {
        fence(Ordering::SeqCst); // as in rcu_read_unlock()
        self.rc[tid].store(0, Ordering::Relaxed);
    }

    /// RAII critical section.
    pub fn read_guard(&self, tid: usize) -> ReadGuard<'_> {
        self.read_lock(tid);
        ReadGuard { rcu: self, tid }
    }

    /// Whether thread `i` is in a critical section that started before the
    /// current grace-period phase (Figure 15, lines 26–31).
    fn gp_ongoing(&self, i: usize) -> bool {
        let val = self.rc[i].load(Ordering::Relaxed); // line 27
        (val & CS_MASK != 0) && ((val ^ self.gc.load(Ordering::Relaxed)) & GP_PHASE != 0)
    }

    /// Figure 15, lines 33–41.
    fn update_counter_and_wait(&self) {
        // line 36: flip the phase.
        self.gc.fetch_xor(GP_PHASE, Ordering::Relaxed);
        for i in 0..self.rc.len() {
            while self.gp_ongoing(i) {
                std::thread::yield_now(); // msleep(10) in the original
            }
        }
    }

    /// Wait for a grace period (Figure 15, lines 43–50): every read-side
    /// critical section active at the call has completed on return.
    pub fn synchronize_rcu(&self) {
        fence(Ordering::SeqCst); // line 44
        {
            let _gp = self.gp_lock.lock().expect("RCU grace-period lock poisoned");
            self.update_counter_and_wait(); // line 46
            self.update_counter_and_wait(); // line 47
        } // line 48
        fence(Ordering::SeqCst); // line 49
    }
}

/// RAII guard returned by [`Urcu::read_guard`].
pub struct ReadGuard<'a> {
    rcu: &'a Urcu,
    tid: usize,
}

impl Drop for ReadGuard<'_> {
    fn drop(&mut self) {
        self.rcu.read_unlock(self.tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn uncontended_grace_period_returns() {
        let rcu = Urcu::new(4);
        rcu.synchronize_rcu();
        rcu.synchronize_rcu();
    }

    #[test]
    fn nesting_tracks_depth() {
        let rcu = Urcu::new(1);
        rcu.read_lock(0);
        rcu.read_lock(0);
        rcu.read_unlock(0);
        // Still inside: gp_ongoing may be true; after final unlock the
        // counter is clear.
        rcu.read_unlock(0);
        assert_eq!(rcu.rc[0].load(Ordering::Relaxed) & CS_MASK, 0);
    }

    #[test]
    #[should_panic(expected = "without rcu_read_lock")]
    fn unlock_without_lock_panics() {
        Urcu::new(1).read_unlock(0);
    }

    /// The fundamental law at runtime: a writer retires an object only
    /// after a grace period, so no reader may ever observe a retired
    /// ("poisoned") object.
    #[test]
    fn grace_period_guarantee_under_stress() {
        const READERS: usize = 3;
        const UPDATES: usize = 2_000;
        const POISON: usize = usize::MAX;

        let rcu = Arc::new(Urcu::new(READERS));
        // Two slots; `current` names the live one.
        let slots: Arc<[AtomicUsize; 2]> =
            Arc::new([AtomicUsize::new(1), AtomicUsize::new(POISON)]);
        let current = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        // Readers that have completed a read-side section. An
        // uncontended grace period only flips a counter and scans the
        // reader slots, so without this the writer can finish every
        // update before any reader is scheduled.
        let started = Arc::new(AtomicUsize::new(0));

        let mut handles = Vec::new();
        for tid in 0..READERS {
            let rcu = rcu.clone();
            let slots = slots.clone();
            let current = current.clone();
            let stop = stop.clone();
            let started = started.clone();
            handles.push(std::thread::spawn(move || {
                let mut reads = 0u64;
                while !stop.load(Ordering::Acquire) {
                    {
                        let _g = rcu.read_guard(tid);
                        let idx = current.load(Ordering::Relaxed);
                        let v = slots[idx].load(Ordering::Relaxed);
                        assert_ne!(v, POISON, "reader observed a freed object");
                    }
                    reads += 1;
                    if reads == 1 {
                        started.fetch_add(1, Ordering::Release);
                    }
                }
                reads
            }));
        }

        while started.load(Ordering::Acquire) < READERS {
            std::thread::yield_now();
        }
        for gen in 2..2 + UPDATES {
            let old = current.load(Ordering::Relaxed);
            let new = 1 - old;
            slots[new].store(gen, Ordering::Relaxed);
            current.store(new, Ordering::Relaxed);
            rcu.synchronize_rcu();
            // Grace period elapsed: no reader can still see `old`.
            slots[old].store(POISON, Ordering::Relaxed);
        }
        stop.store(true, Ordering::Release);
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0, "readers must have made progress");
    }

    #[test]
    fn concurrent_updaters_serialise() {
        let rcu = Arc::new(Urcu::new(2));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let rcu = rcu.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    rcu.synchronize_rcu();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
