//! Zero-dependency fault injection.
//!
//! A *fault point* is a named site in production code where a test run
//! can force a failure: an I/O error in the verdict store, a panic in a
//! pipeline worker, a budget trip in the enumerator. Sites are plain
//! `&'static str` names; the convention is `layer.event`
//! (`store.flush`, `worker.panic`, `enum.budget`).
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
//! The variable is read once, at the first site a process reaches. When
//! it arms at least one site, that read prints one stderr line naming
//! the armed sites before any of them can fire, so a run with injected
//! faults never passes for a clean one; unset, or arming nothing, it
//! prints nothing. An unarmed site costs two atomic loads and takes no
//! lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Fast-path gate: false ⇒ nothing is armed anywhere, skip the map.
static ANY: AtomicBool = AtomicBool::new(false);
static STATE: OnceLock<Mutex<Config>> = OnceLock::new();
/// Serialises [`arm`]-based tests; env-var arming does not take it.
static TEST_LOCK: Mutex<()> = Mutex::new(());

#[derive(Clone, Copy)]
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
        if let Ok(spec) = std::env::var("LKMM_FAULTPOINTS") {
            parse_spec_into(&spec, &mut config);
        }
        if !config.sites.is_empty() {
            let mut names: Vec<&str> = config.sites.keys().map(String::as_str).collect();
            names.sort_unstable();
            eprintln!("faultpoint: LKMM_FAULTPOINTS armed {}", names.join(", "));
            ANY.store(true, Ordering::SeqCst);
        }
        Mutex::new(config)
    })
}

fn parse_spec_into(spec: &str, config: &mut Config) {
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (name, trigger) = match part.split_once('=') {
            Some((name, spec)) => {
                let (first, count) = match spec.split_once(':') {
                    Some((n, k)) => (n.trim().parse::<u64>(), k.trim().parse::<u64>()),
                    None => (spec.trim().parse::<u64>(), Ok(1)),
                };
                match (first, count) {
                    (Ok(first), Ok(count)) if first >= 1 && count >= 1 => {
                        (name.trim(), Trigger::OnHits { first, count })
                    }
                    _ => continue, // malformed trigger: ignore, stay safe
                }
            }
            None => (part, Trigger::Always),
        };
        config.sites.insert(name.to_string(), trigger);
    }
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
pub fn arm(spec: &str) -> ArmGuard {
    let serial = TEST_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let mut staged = Config::default();
    parse_spec_into(spec, &mut staged);
    let names: Vec<String> = staged.sites.keys().cloned().collect();
    let mut config = state().lock().unwrap();
    for (name, trigger) in staged.sites {
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
        let guard = arm("test.alpha");
        assert!(should_fail("test.alpha"));
        assert!(should_fail("test.alpha"));
        assert!(!should_fail("test.other"));
        drop(guard);
        assert!(!should_fail("test.alpha"));
    }

    #[test]
    fn arm_nth_hit_fires_exactly_once() {
        let _guard = arm("test.beta=3");
        assert!(!should_fail("test.beta"));
        assert!(!should_fail("test.beta"));
        assert!(should_fail("test.beta"));
        assert!(!should_fail("test.beta"));
    }

    #[test]
    fn arm_hit_range_fires_k_times_then_disarms() {
        let _guard = arm("test.delta=2:3");
        assert!(!should_fail("test.delta"), "hit 1 is before the window");
        assert!(should_fail("test.delta"));
        assert!(should_fail("test.delta"));
        assert!(should_fail("test.delta"), "hits 2..4 all fire");
        assert!(!should_fail("test.delta"), "window exhausted, disarmed");
        assert!(!should_fail("test.delta"));
    }

    #[test]
    fn malformed_range_is_ignored() {
        let _guard = arm("test.eps=0:3,test.zeta=2:0,test.eta=x:y");
        assert!(!should_fail("test.eps"));
        assert!(!should_fail("test.zeta"));
        assert!(!should_fail("test.eta"));
    }

    #[test]
    fn injected_io_error_is_labelled() {
        let _guard = arm("test.gamma");
        let err = inject_io("test.gamma").unwrap_err();
        assert!(err.to_string().contains("test.gamma"));
    }
}
