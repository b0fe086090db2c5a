//! Deterministic fault injection ("failpoints").
//!
//! A failpoint is a named site in the code — `failpoint::apply("cell-run")`
//! — that normally does nothing, but can be armed to panic, return an
//! error, sleep, or fail with an I/O error, either on every hit or only
//! on the Nth. Arming happens two ways:
//!
//! - the `SCU_FAILPOINTS` environment variable, parsed once on first
//!   use (the CI fault-injection matrix drives the binaries this way);
//! - the [`scoped`] builder API, which arms sites for the lifetime of a
//!   guard and is what the test suite uses (tests pick disjoint site
//!   names, so parallel tests do not interfere).
//!
//! Spec grammar, `;`-separated items:
//!
//! ```text
//! site=action[(arg)][@N|@N+]
//!
//! actions:  panic[(msg)]   panic at the site
//!           error[(msg)]   typed error from Result-shaped sites
//!           delay(ms)      sleep before proceeding
//!           io-error       std::io::Error from I/O-shaped sites
//!           stall[(ms)]    sleep (default 60 s) then proceed — models a
//!                          hung peer; pair with short socket timeouts
//!           disconnect     ConnectionReset from I/O-shaped sites —
//!                          models a peer vanishing mid-transfer
//! trigger:  @N             fire on the Nth hit only (1-based)
//!           @N+            fire on the Nth and every later hit
//!           (none)         fire on every hit
//! ```
//!
//! e.g. `SCU_FAILPOINTS='cell-run=panic@3;cache-load=io-error'`.
//!
//! Triggers are seeded by a per-site hit counter, so a given
//! configuration fires at the same hits on every run — injection is as
//! deterministic as the code under test.
//!
//! **Cost when inactive**: every entry point first reads one relaxed
//! `AtomicBool`; with `SCU_FAILPOINTS` unset and no scoped guards the
//! registry is never locked and never allocated, so the instrumented
//! hot paths stay byte-identical in behaviour and unmeasurable in
//! overhead.
//!
//! Site registry (every site compiled into the workspace):
//!
//! | site                 | location                          | shapes honoured |
//! |----------------------|-----------------------------------|-----------------|
//! | `cell-run`           | `scu_algos::cell::Cell::run`      | panic, delay, error (as panic) |
//! | `graph-build`        | `scu_algos::cell::shared_graph`   | panic, delay    |
//! | `cache-load`         | `LsmStore::get`                   | io-error, delay |
//! | `cache-store`        | `LsmStore::put`                   | io-error, delay |
//! | `journal-append`     | `LsmStore::journal_append`        | io-error, delay |
//! | `wal-append`         | `scu_store::wal::Wal::append`     | io-error, delay |
//! | `segment-flush`      | `scu_store::lsm` memtable flush   | io-error, delay |
//! | `compact`            | `scu_store::lsm` compaction pass  | io-error, delay |
//! | `server-accept`      | `scu_server` accept loop          | io-error, disconnect, delay, stall |
//! | `server-read`        | `scu_server::http::read_request`  | io-error, disconnect, delay, stall |
//! | `server-stream-write`| `scu_server::http::ChunkedWriter` | io-error, disconnect, delay, stall |
//! | `scheduler-enqueue`  | `scu_server::Scheduler::submit`   | error, delay    |

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use crate::error::lock_unpoisoned;

/// What an armed failpoint does when its trigger matches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Panic with the message (default: the site name).
    Panic(String),
    /// Return [`Injected`] from Result-shaped sites.
    Error(String),
    /// Sleep this long, then proceed normally.
    Delay(Duration),
    /// Return a `std::io::Error` from I/O-shaped sites.
    IoError,
    /// Sleep this long (default 60 s), then proceed — a hung peer.
    /// Unlike `delay` it is meant to outlive the socket timeout at the
    /// site, so the *deadline* machinery fires rather than the sleep
    /// elapsing.
    Stall(Duration),
    /// Return `ConnectionReset` from I/O-shaped sites — the peer
    /// vanished mid-transfer.
    Disconnect,
}

/// When an armed failpoint fires, relative to the per-site hit counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Every hit.
    Always,
    /// The Nth hit only (1-based).
    Nth(u64),
    /// The Nth hit and every later one.
    FromNth(u64),
}

impl Trigger {
    fn fires(self, hit: u64) -> bool {
        match self {
            Trigger::Always => true,
            Trigger::Nth(n) => hit == n,
            Trigger::FromNth(n) => hit >= n,
        }
    }
}

/// One armed site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// What to do.
    pub action: Action,
    /// When to do it.
    pub trigger: Trigger,
}

/// The error produced by `error`/`io-error` actions at Result-shaped
/// sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injected {
    /// The site that fired.
    pub site: String,
    /// The configured message.
    pub message: String,
}

impl std::fmt::Display for Injected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "failpoint '{}': {}", self.site, self.message)
    }
}

impl std::error::Error for Injected {}

struct SiteState {
    spec: Spec,
    hits: u64,
}

/// `true` while any site is armed; the only cost paid by an unarmed
/// process.
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<HashMap<String, SiteState>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, SiteState>>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut map = HashMap::new();
        if let Ok(env) = std::env::var("SCU_FAILPOINTS") {
            match parse(&env) {
                Ok(specs) => {
                    for (site, spec) in specs {
                        map.insert(site, SiteState { spec, hits: 0 });
                    }
                }
                Err(e) => eprintln!("[scu-harness] ignoring malformed SCU_FAILPOINTS: {e}"),
            }
        }
        if !map.is_empty() {
            ACTIVE.store(true, Ordering::SeqCst);
        }
        Mutex::new(map)
    })
}

/// Parses a failpoint spec string (the `SCU_FAILPOINTS` grammar).
///
/// # Errors
///
/// Returns a description of the first malformed item.
pub fn parse(spec: &str) -> Result<Vec<(String, Spec)>, String> {
    let mut out = Vec::new();
    for item in spec.split(';').map(str::trim).filter(|s| !s.is_empty()) {
        let (site, rhs) = item
            .split_once('=')
            .ok_or_else(|| format!("'{item}': expected site=action"))?;
        let (action_part, trigger) = match rhs.rsplit_once('@') {
            Some((a, t)) => {
                let trigger = if let Some(n) = t.strip_suffix('+') {
                    Trigger::FromNth(parse_nth(n, item)?)
                } else {
                    Trigger::Nth(parse_nth(t, item)?)
                };
                (a, trigger)
            }
            None => (rhs, Trigger::Always),
        };
        let (name, arg) = match action_part.split_once('(') {
            Some((n, rest)) => {
                let arg = rest
                    .strip_suffix(')')
                    .ok_or_else(|| format!("'{item}': unclosed argument"))?;
                (n.trim(), Some(arg.to_string()))
            }
            None => (action_part.trim(), None),
        };
        let action = match name {
            "panic" => Action::Panic(arg.unwrap_or_else(|| format!("failpoint '{site}'"))),
            "error" => Action::Error(arg.unwrap_or_else(|| "injected error".to_string())),
            "delay" => {
                let ms: u64 = arg
                    .as_deref()
                    .unwrap_or("")
                    .parse()
                    .map_err(|_| format!("'{item}': delay needs milliseconds"))?;
                Action::Delay(Duration::from_millis(ms))
            }
            "io-error" => Action::IoError,
            "stall" => {
                let ms: u64 = match arg.as_deref() {
                    None => 60_000,
                    Some(text) => text
                        .parse()
                        .map_err(|_| format!("'{item}': stall needs milliseconds"))?,
                };
                Action::Stall(Duration::from_millis(ms))
            }
            "disconnect" => Action::Disconnect,
            other => return Err(format!("'{item}': unknown action '{other}'")),
        };
        out.push((site.trim().to_string(), Spec { action, trigger }));
    }
    Ok(out)
}

fn parse_nth(text: &str, item: &str) -> Result<u64, String> {
    text.parse::<u64>()
        .ok()
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("'{item}': trigger expects a positive hit number"))
}

/// Whether any failpoint is armed. The first call forces the registry
/// to parse `SCU_FAILPOINTS` (otherwise env-armed sites would never
/// raise `ACTIVE`); after that the fast path is one completed-`Once`
/// check plus one relaxed atomic load.
#[inline]
pub fn active() -> bool {
    static ENV_CHECKED: std::sync::Once = std::sync::Once::new();
    ENV_CHECKED.call_once(|| {
        let _ = registry();
    });
    ACTIVE.load(Ordering::Relaxed)
}

/// Consults the registry for `site`, advancing its hit counter.
/// Returns the action to perform if the site is armed and its trigger
/// matches this hit.
fn fire(site: &str) -> Option<Action> {
    if !active() {
        return None;
    }
    let mut map = lock_unpoisoned(registry(), "failpoint registry");
    let state = map.get_mut(site)?;
    state.hits += 1;
    state
        .spec
        .trigger
        .fires(state.hits)
        .then(|| state.spec.action.clone())
}

/// The site entry point for infallible code paths: sleeps on `delay`,
/// panics on `panic` — and on `error`/`io-error` too, since a site with
/// no `Result` channel can only surface an injected fault by panicking
/// (the harness's `catch_unwind` isolation turns it into a failed
/// cell).
#[inline]
pub fn apply(site: &str) {
    if !active() {
        return;
    }
    match fire(site) {
        None => {}
        Some(Action::Delay(d)) | Some(Action::Stall(d)) => std::thread::sleep(d),
        Some(Action::Panic(msg)) => panic!("{msg}"),
        Some(Action::Error(msg)) => panic!("failpoint '{site}': {msg}"),
        Some(Action::IoError) => panic!("failpoint '{site}': injected io error"),
        Some(Action::Disconnect) => panic!("failpoint '{site}': injected disconnect"),
    }
}

/// The site entry point for `Result`-shaped paths.
///
/// # Errors
///
/// Returns [`Injected`] when an `error` action fires.
#[inline]
pub fn check(site: &str) -> Result<(), Injected> {
    if !active() {
        return Ok(());
    }
    match fire(site) {
        None => Ok(()),
        Some(Action::Delay(d)) | Some(Action::Stall(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
        Some(Action::Panic(msg)) => panic!("{msg}"),
        Some(Action::Error(msg)) => Err(Injected {
            site: site.to_string(),
            message: msg,
        }),
        Some(Action::IoError) => Err(Injected {
            site: site.to_string(),
            message: format!("injected io fault at '{site}'"),
        }),
        Some(Action::Disconnect) => Err(Injected {
            site: site.to_string(),
            message: format!("injected disconnect at '{site}'"),
        }),
    }
}

/// The site entry point for I/O paths.
///
/// # Errors
///
/// Returns an `std::io::Error` when an `io-error`, `error`, or
/// `disconnect` action fires; `disconnect` maps to
/// `ErrorKind::ConnectionReset` so callers exercise the same branch a
/// vanished peer takes.
#[inline]
pub fn io(site: &str) -> std::io::Result<()> {
    if !active() {
        return Ok(());
    }
    match fire(site) {
        None => Ok(()),
        Some(Action::Delay(d)) | Some(Action::Stall(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
        Some(Action::Panic(msg)) => panic!("{msg}"),
        Some(Action::Error(msg)) => {
            Err(std::io::Error::other(format!("failpoint '{site}': {msg}")))
        }
        Some(Action::IoError) => Err(std::io::Error::other(format!(
            "failpoint '{site}': injected io fault at '{site}'"
        ))),
        Some(Action::Disconnect) => Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionReset,
            format!("failpoint '{site}': injected disconnect"),
        )),
    }
}

/// Routes `scu-store`'s failpoint sites (`cache-load`, `cache-store`,
/// `journal-append`, `wal-append`, `segment-flush`, `compact`) through
/// this registry, so `SCU_FAILPOINTS` and [`scoped`] drive the storage
/// layer exactly like every other site. Idempotent; called by every
/// cache/harness constructor that touches a store.
pub fn install_store_hook() {
    scu_store::failpoints::install(io);
}

/// Arms the sites described by `spec` for the lifetime of the returned
/// guard — the programmatic equivalent of `SCU_FAILPOINTS`, used by
/// tests. Guards from different sites compose; re-arming a live site
/// replaces its spec and resets its hit counter.
///
/// # Panics
///
/// Panics on a malformed spec (tests should not silently run without
/// their faults).
pub fn scoped(spec: &str) -> ScopedFailpoints {
    let specs = parse(spec).expect("malformed failpoint spec");
    let mut map = lock_unpoisoned(registry(), "failpoint registry");
    let mut sites = Vec::new();
    for (site, spec) in specs {
        map.insert(site.clone(), SiteState { spec, hits: 0 });
        sites.push(site);
    }
    if !map.is_empty() {
        ACTIVE.store(true, Ordering::SeqCst);
    }
    ScopedFailpoints { sites }
}

/// Disarms its sites on drop; see [`scoped`].
#[must_use = "failpoints disarm when the guard drops"]
pub struct ScopedFailpoints {
    sites: Vec<String>,
}

impl Drop for ScopedFailpoints {
    fn drop(&mut self) {
        let mut map = lock_unpoisoned(registry(), "failpoint registry");
        for site in &self.sites {
            map.remove(site);
        }
        if map.is_empty() {
            ACTIVE.store(false, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_sites_do_nothing() {
        // No guard armed for these names: all shapes are no-ops.
        apply("fp-test-unarmed");
        assert!(check("fp-test-unarmed").is_ok());
        assert!(io("fp-test-unarmed").is_ok());
    }

    #[test]
    fn parse_grammar() {
        let specs = parse("a=panic; b=error(oops)@3 ;c=delay(25)@2+;d=io-error").unwrap();
        assert_eq!(specs.len(), 4);
        assert_eq!(
            specs[0],
            (
                "a".to_string(),
                Spec {
                    action: Action::Panic("failpoint 'a'".into()),
                    trigger: Trigger::Always
                }
            )
        );
        assert_eq!(specs[1].1.action, Action::Error("oops".into()));
        assert_eq!(specs[1].1.trigger, Trigger::Nth(3));
        assert_eq!(
            specs[2].1,
            Spec {
                action: Action::Delay(Duration::from_millis(25)),
                trigger: Trigger::FromNth(2)
            }
        );
        assert_eq!(specs[3].1.action, Action::IoError);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("no-equals").is_err());
        assert!(parse("a=explode").is_err());
        assert!(parse("a=panic@0").is_err());
        assert!(parse("a=delay(ten)").is_err());
        assert!(parse("a=panic(unclosed").is_err());
    }

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let _fp = scoped("fp-test-nth=error@2");
        assert!(check("fp-test-nth").is_ok()); // hit 1
        assert!(check("fp-test-nth").is_err()); // hit 2 fires
        assert!(check("fp-test-nth").is_ok()); // hit 3
    }

    #[test]
    fn from_nth_trigger_fires_from_then_on() {
        let _fp = scoped("fp-test-from=io-error@2+");
        assert!(io("fp-test-from").is_ok());
        assert!(io("fp-test-from").is_err());
        assert!(io("fp-test-from").is_err());
    }

    #[test]
    fn panic_action_panics_with_message() {
        let _fp = scoped("fp-test-panic=panic(kaboom)");
        let err = std::panic::catch_unwind(|| apply("fp-test-panic")).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert_eq!(msg, "kaboom");
    }

    #[test]
    fn guard_disarms_on_drop() {
        {
            let _fp = scoped("fp-test-drop=error");
            assert!(check("fp-test-drop").is_err());
        }
        assert!(check("fp-test-drop").is_ok());
    }

    #[test]
    fn stall_and_disconnect_parse() {
        let specs = parse("a=stall;b=stall(250)@2;c=disconnect").unwrap();
        assert_eq!(specs[0].1.action, Action::Stall(Duration::from_secs(60)));
        assert_eq!(
            specs[1].1,
            Spec {
                action: Action::Stall(Duration::from_millis(250)),
                trigger: Trigger::Nth(2)
            }
        );
        assert_eq!(specs[2].1.action, Action::Disconnect);
        assert!(parse("a=stall(soon)").is_err());
    }

    #[test]
    fn disconnect_maps_to_connection_reset_at_io_sites() {
        let _fp = scoped("fp-test-disc=disconnect");
        let err = io("fp-test-disc").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
        assert!(err.to_string().contains("injected disconnect"));
        // The Result-shaped entry point surfaces it as a typed error.
        let _fp2 = scoped("fp-test-disc2=disconnect");
        assert!(check("fp-test-disc2").is_err());
    }

    #[test]
    fn stall_action_sleeps_then_proceeds() {
        let _fp = scoped("fp-test-stall=stall(15)");
        let start = std::time::Instant::now();
        assert!(io("fp-test-stall").is_ok());
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn delay_action_sleeps_then_proceeds() {
        let _fp = scoped("fp-test-delay=delay(15)");
        let start = std::time::Instant::now();
        apply("fp-test-delay");
        assert!(start.elapsed() >= Duration::from_millis(15));
    }
}
