//! Real threaded reference implementations of the interleaved
//! algorithms, in the `rcu::urcu` mould: plain `std` atomics, no
//! dependencies, each carrying the exact orderings its litmus family's
//! safe variant models. The stress tests in this module run them on
//! real hardware threads; the klitmus host runner exercises the litmus
//! twins; `interleave::explore` covers every schedule of the abstract
//! step machine. Three operational layers, one algorithm.

use std::sync::atomic::{fence, AtomicI64, AtomicUsize, Ordering};

/// Ticket spinlock: `fetch_add` draw (relaxed — the draw itself needs
/// no ordering), acquire spin on now-serving, release publish of the
/// successor ticket.
#[derive(Debug, Default)]
pub struct TicketLock {
    next: AtomicUsize,
    serving: AtomicUsize,
}

impl TicketLock {
    pub fn new() -> TicketLock {
        TicketLock::default()
    }

    /// Acquire; returns the ticket to pass to [`TicketLock::unlock`].
    pub fn lock(&self) -> usize {
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        while self.serving.load(Ordering::Acquire) != ticket {
            std::hint::spin_loop();
        }
        ticket
    }

    pub fn unlock(&self, ticket: usize) {
        self.serving.store(ticket + 1, Ordering::Release);
    }
}

/// Seqlock over a small payload array: odd/even counter, release
/// publication, acquire snapshots with retry.
#[derive(Debug)]
pub struct SeqLock<const N: usize> {
    seq: AtomicUsize,
    data: [AtomicI64; N],
}

impl<const N: usize> Default for SeqLock<N> {
    fn default() -> Self {
        SeqLock { seq: AtomicUsize::new(0), data: [(); N].map(|_| AtomicI64::new(0)) }
    }
}

impl<const N: usize> SeqLock<N> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Single-writer update: bump odd, write every word, bump even.
    pub fn write(&self, value: i64) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        for w in &self.data {
            w.store(value, Ordering::Relaxed);
        }
        self.seq.store(s + 2, Ordering::Release);
    }

    /// One snapshot attempt: `Some(words)` when accepted (counter even
    /// and unchanged across the reads), `None` when the reader must
    /// retry.
    pub fn try_read(&self) -> Option<[i64; N]> {
        let s1 = self.seq.load(Ordering::Acquire);
        if s1 & 1 == 1 {
            return None;
        }
        let mut out = [0i64; N];
        for (o, w) in out.iter_mut().zip(&self.data) {
            *o = w.load(Ordering::Relaxed);
        }
        fence(Ordering::Acquire);
        let s2 = self.seq.load(Ordering::Relaxed);
        (s1 == s2).then_some(out)
    }

    /// Retry until a snapshot is accepted.
    pub fn read(&self) -> [i64; N] {
        loop {
            if let Some(v) = self.try_read() {
                return v;
            }
            std::hint::spin_loop();
        }
    }
}

/// Sentinel the refcount stress test "frees" the payload with; a reader
/// observing it after a successful clone/upgrade has hit use-after-free.
pub const POISON: i64 = -0xdead;

/// `Arc`-style strong count with a payload word standing in for the
/// managed allocation: owners counted at construction, release drop,
/// acquire fence on the final drop before the free (Rust `Arc`'s exact
/// protocol), and a `Weak::upgrade`-style conditional increment.
#[derive(Debug)]
pub struct ArcCount {
    count: AtomicUsize,
    payload: AtomicI64,
}

impl ArcCount {
    /// One owner, payload initialised live.
    pub fn new(owners: usize, payload: i64) -> ArcCount {
        ArcCount { count: AtomicUsize::new(owners), payload: AtomicI64::new(payload) }
    }

    /// `Weak::upgrade`: CAS-increment unless the count already hit 0.
    pub fn upgrade(&self) -> bool {
        let mut cur = self.count.load(Ordering::Relaxed);
        loop {
            if cur == 0 {
                return false;
            }
            match self.count.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Read the payload through a held reference.
    pub fn load_payload(&self) -> i64 {
        self.payload.load(Ordering::Relaxed)
    }

    /// Drop one reference; the final dropper (and only it) observes the
    /// whole object and "frees" it by poisoning the payload. Returns
    /// the payload seen at free time, `None` for non-final drops.
    pub fn drop_ref(&self) -> Option<i64> {
        if self.count.fetch_sub(1, Ordering::Release) != 1 {
            return None;
        }
        fence(Ordering::Acquire);
        let seen = self.payload.load(Ordering::Relaxed);
        self.payload.store(POISON, Ordering::Relaxed);
        Some(seen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;
    use std::thread;

    const ITERS: usize = if cfg!(miri) { 50 } else { 4_000 };

    #[test]
    fn ticket_lock_is_mutually_exclusive_and_fifo() {
        let lock = Arc::new(TicketLock::new());
        let in_cs = Arc::new(AtomicUsize::new(0));
        let total = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let (lock, in_cs, total) = (lock.clone(), in_cs.clone(), total.clone());
                thread::spawn(move || {
                    for _ in 0..ITERS / 4 {
                        let t = lock.lock();
                        assert_eq!(in_cs.fetch_add(1, Ordering::Relaxed), 0, "two in CS");
                        total.fetch_add(1, Ordering::Relaxed);
                        in_cs.fetch_sub(1, Ordering::Relaxed);
                        lock.unlock(t);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), (ITERS / 4) * 4);
    }

    #[test]
    fn seqlock_readers_never_see_torn_payload() {
        let lock = Arc::new(SeqLock::<3>::new());
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let (lock, stop) = (lock.clone(), stop.clone());
                thread::spawn(move || {
                    let mut seen = 0usize;
                    // At least one read even if the writer already
                    // finished; then poll until told to stop.
                    loop {
                        let snap = lock.read();
                        assert!(
                            snap.iter().all(|&w| w == snap[0]),
                            "torn accepted read: {snap:?}"
                        );
                        seen += 1;
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    seen
                })
            })
            .collect();
        for v in 1..=ITERS as i64 {
            lock.write(v);
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
        assert_eq!(lock.read(), [ITERS as i64; 3]);
    }

    #[test]
    fn final_drop_sees_every_use_and_upgrades_never_resurrect() {
        for _ in 0..if cfg!(miri) { 5 } else { 500 } {
            // One strong owner (the user); the second thread holds only
            // a weak reference and must upgrade to touch the payload.
            let rc = Arc::new(ArcCount::new(1, 0));
            let user = {
                let rc = rc.clone();
                thread::spawn(move || {
                    rc.payload.store(42, Ordering::Relaxed);
                    rc.drop_ref()
                })
            };
            let upgrader = {
                let rc = rc.clone();
                thread::spawn(move || {
                    if !rc.upgrade() {
                        return None;
                    }
                    let seen = rc.load_payload();
                    assert_ne!(seen, POISON, "upgrade handed out a freed object");
                    rc.drop_ref().map(|p| (seen, p))
                })
            };
            let a = user.join().unwrap();
            let b = upgrader.join().unwrap();
            // Exactly one dropper frees.
            assert_eq!(a.is_some() as usize + b.is_some() as usize, 1);
            if let Some(p) = a {
                assert_eq!(p, 42, "user freed without seeing its own write");
            }
            if let Some((_, p)) = b {
                assert_eq!(p, 42, "final drop missed the user's payload write");
            }
        }
    }
}
