//! Zero-dependency fault injection.
//!
//! A *fault point* is a named site in production code where a test run
//! can force a failure: an I/O error in the verdict store, a panic in a
//! pipeline worker, a budget trip in the enumerator. Sites are plain
//! `&'static str` names, listed in [`SITES`]; the convention is
//! `layer.event` (`store.flush`, `worker.panic`, `enum.budget`).
//!
//! Every build carries the sites. They stay inert until *armed*, either
//!
//! * by the environment: `LKMM_FAULTPOINTS="store.flush,worker.panic=3"`
//!   — a bare name fires on every hit, `name=N` fires only on the Nth
//!   hit of that site (1-based), and `name=N:K` fires on hits
//!   `N..N+K-1` then disarms (a *poisoned* site that fails K times in a
//!   row — enough to exhaust a retry budget — then clears); or
//! * programmatically in tests via [`arm`], which holds a global lock
//!   for its guard's lifetime (serialising fault tests against each
//!   other) and disarms its sites on drop.
//!
//! A spec is armed whole or not at all: a part naming a site that is
//! not in [`SITES`], or whose trigger is not `N` or `N:K` with both at
//! least 1 (and `N + K` below 2^64), rejects the spec. The variable is
//! read once, at the first site a process reaches. When it arms at
//! least one site, that read prints one stderr line naming the armed
//! sites before any of them can fire, so a run with injected faults
//! never passes for a clean one; a rejected spec prints one line naming
//! the part and why, so a typo never passes for a clean run either.
//! Unset, or arming nothing, it prints nothing. [`arm`] panics on a
//! spec the variable would reject. An unarmed site costs two atomic
//! loads and takes no lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Every site the code fires, sorted: the names a spec may arm, and the
/// list a crash sweep walks.
pub const SITES: [&str; 14] = [
    "algo.weaken",
    "campaign.kill",
    "cat.misjudge",
    "ckpt.torn",
    "enum.budget",
    "lkmm.misjudge",
    "server.accept",
    "shard.append",
    "store.append.sync",
    "store.append.torn",
    "store.compact.crash",
    "store.flush",
    "worker.panic",
    "worker.transient",
];

/// Fast-path gate: false ⇒ nothing is armed anywhere, skip the map.
static ANY: AtomicBool = AtomicBool::new(false);
static STATE: OnceLock<Mutex<Config>> = OnceLock::new();
/// Serialises [`arm`]-based tests; env-var arming does not take it.
static TEST_LOCK: Mutex<()> = Mutex::new(());

#[derive(Clone, Copy, Debug)]
enum Trigger {
    Always,
    /// Fire on hits `first..first + count - 1` (1-based), then
    /// disarm. `count == 1` is the plain `name=N` Nth-hit form.
    OnHits { first: u64, count: u64 },
}

#[derive(Default)]
struct Config {
    sites: HashMap<String, Trigger>,
    hits: HashMap<String, u64>,
}

fn state() -> &'static Mutex<Config> {
    STATE.get_or_init(|| {
        let mut config = Config::default();
        match std::env::var("LKMM_FAULTPOINTS").map(|spec| parse_spec(&spec)) {
            Ok(Ok(sites)) if !sites.is_empty() => {
                let mut names: Vec<&str> = sites.keys().map(String::as_str).collect();
                names.sort_unstable();
                eprintln!("faultpoint: LKMM_FAULTPOINTS armed {}", names.join(", "));
                config.sites = sites;
                ANY.store(true, Ordering::SeqCst);
            }
            Ok(Err(why)) => {
                eprintln!("faultpoint: LKMM_FAULTPOINTS rejected {why}; nothing is armed");
            }
            _ => {}
        }
        Mutex::new(config)
    })
}

/// The sites `spec` arms with their triggers, or why it arms none: the
/// first part that names no site in [`SITES`], or whose trigger is not
/// `N` or `N:K` with both at least 1 and `N + K` below 2^64. Empty parts
/// are skipped.
fn parse_spec(spec: &str) -> Result<HashMap<String, Trigger>, String> {
    let mut sites = HashMap::new();
    for part in spec.split(',').map(str::trim).filter(|part| !part.is_empty()) {
        let (name, trigger) = match part.split_once('=') {
            Some((name, hits)) => {
                let (first, count) = hits.split_once(':').unwrap_or((hits, "1"));
                let positive = |n: &str| n.trim().parse::<u64>().ok().filter(|&n| n >= 1);
                // The window's end, N + K, must be countable.
                let trigger = positive(first).zip(positive(count));
                let trigger = trigger.filter(|(first, count)| first.checked_add(*count).is_some());
                (name.trim(), trigger.map(|(first, count)| Trigger::OnHits { first, count }))
            }
            None => (part, Some(Trigger::Always)),
        };
        if !SITES.contains(&name) {
            return Err(format!("`{part}`: no fault site is named `{name}`"));
        }
        let why = || format!("`{part}`: a trigger is N or N:K, both at least 1, N + K < 2^64");
        sites.insert(name.to_string(), trigger.ok_or_else(why)?);
    }
    Ok(sites)
}

/// Whether `site` should fail right now. Counts a hit against the
/// site whenever *any* site is armed.
pub fn should_fail(site: &str) -> bool {
    if !ANY.load(Ordering::Relaxed) {
        // Force env parsing on first call even when nothing is
        // armed yet, so ANY reflects LKMM_FAULTPOINTS.
        if STATE.get().is_none() {
            state();
            if !ANY.load(Ordering::Relaxed) {
                return false;
            }
        } else {
            return false;
        }
    }
    let mut config = state().lock().unwrap();
    let Some(&trigger) = config.sites.get(site) else {
        return false;
    };
    let hits = config.hits.entry(site.to_string()).or_insert(0);
    *hits += 1;
    match trigger {
        Trigger::Always => true,
        Trigger::OnHits { first, count } => {
            let hit = *hits;
            if hit + 1 == first + count {
                config.sites.remove(site);
            }
            hit >= first && hit < first + count
        }
    }
}

/// Panic (with a recognisable payload) if `site` is armed.
pub fn maybe_panic(site: &str) {
    if should_fail(site) {
        panic!("faultpoint: injected panic at `{site}`");
    }
}

/// Return an injected `io::Error` if `site` is armed.
pub fn inject_io(site: &str) -> std::io::Result<()> {
    if should_fail(site) {
        Err(std::io::Error::other(format!("faultpoint: injected I/O error at `{site}`")))
    } else {
        Ok(())
    }
}

/// Guard returned by [`arm`]; disarms its sites (and resets their
/// hit counters) when dropped.
pub struct ArmGuard {
    names: Vec<String>,
    _serial: MutexGuard<'static, ()>,
}

impl Drop for ArmGuard {
    fn drop(&mut self) {
        let mut config = state().lock().unwrap();
        for name in &self.names {
            config.sites.remove(name);
            config.hits.remove(name);
        }
        if config.sites.is_empty() {
            ANY.store(false, Ordering::SeqCst);
        }
    }
}

/// Arm sites from a spec string (same grammar as the env variable)
/// for the lifetime of the returned guard. Takes a global test
/// lock, so concurrent `#[test]`s using `arm` serialise instead of
/// seeing each other's faults.
///
/// # Panics
///
/// On a spec that `LKMM_FAULTPOINTS` would reject.
pub fn arm(spec: &str) -> ArmGuard {
    let staged = parse_spec(spec).unwrap_or_else(|why| panic!("faultpoint: arm rejected {why}"));
    let serial = TEST_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let names: Vec<String> = staged.keys().cloned().collect();
    let mut config = state().lock().unwrap();
    for (name, trigger) in staged {
        config.hits.remove(&name);
        config.sites.insert(name, trigger);
    }
    if !config.sites.is_empty() {
        ANY.store(true, Ordering::SeqCst);
    }
    drop(config);
    ArmGuard { names, _serial: serial }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_sites_never_fire() {
        assert!(!should_fail("no.such.site"));
        maybe_panic("no.such.site");
        inject_io("no.such.site").unwrap();
    }

    #[test]
    fn arm_always_fires_until_dropped() {
        let guard = arm("store.flush");
        assert!(should_fail("store.flush"));
        assert!(should_fail("store.flush"));
        assert!(!should_fail("worker.panic"));
        drop(guard);
        assert!(!should_fail("store.flush"));
    }

    #[test]
    fn arm_nth_hit_fires_exactly_once() {
        let _guard = arm("enum.budget=3");
        assert!(!should_fail("enum.budget"));
        assert!(!should_fail("enum.budget"));
        assert!(should_fail("enum.budget"));
        assert!(!should_fail("enum.budget"));
    }

    #[test]
    fn arm_hit_range_fires_k_times_then_disarms() {
        let _guard = arm("ckpt.torn=2:3");
        assert!(!should_fail("ckpt.torn"), "hit 1 is before the window");
        assert!(should_fail("ckpt.torn"));
        assert!(should_fail("ckpt.torn"));
        assert!(should_fail("ckpt.torn"), "hits 2..4 all fire");
        assert!(!should_fail("ckpt.torn"), "window exhausted, disarmed");
        assert!(!should_fail("ckpt.torn"));
    }

    #[test]
    fn malformed_and_unknown_specs_are_rejected() {
        let bad = [
            "enum.budget=0",
            "enum.budget=x",
            "enum.budget=",
            "enum.budget=0:3",
            "enum.budget=2:0",
            "enum.budget=x:y",
            "enum.budget=18446744073709551615",
            "enum.budget=2:18446744073709551614",
            "enum.budgt",
            "enum.budgt=1",
        ];
        for part in bad {
            // One bad part rejects the whole spec, good parts included.
            let why = parse_spec(&format!("store.flush, {part}")).unwrap_err();
            assert!(why.starts_with(&format!("`{part}`: ")), "{part}: {why}");
            let armed = std::panic::catch_unwind(|| drop(arm(part)));
            assert!(armed.is_err(), "arm({part:?}) must panic");
        }
        let good = parse_spec(" store.flush,, worker.panic=2 ,ckpt.torn=2:3,").unwrap();
        let mut names: Vec<&str> = good.keys().map(String::as_str).collect();
        names.sort_unstable();
        assert_eq!(names, ["ckpt.torn", "store.flush", "worker.panic"]);
    }

    #[test]
    fn sites_are_sorted_and_distinct() {
        assert!(SITES.windows(2).all(|pair| pair[0] < pair[1]), "{SITES:?}");
    }

    #[test]
    fn injected_io_error_is_labelled() {
        let _guard = arm("shard.append");
        let err = inject_io("shard.append").unwrap_err();
        assert!(err.to_string().contains("shard.append"));
    }
}
