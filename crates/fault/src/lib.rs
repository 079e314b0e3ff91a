//! Deterministic failpoint registry.
//!
//! A *failpoint* is a named site in production code where a fault can be
//! injected on demand: an I/O error, a latency spike, a torn write, or a
//! panic. Sites are compiled in unconditionally but cost a single relaxed
//! atomic load when no faults are configured, so the hot path stays free.
//!
//! Activation comes from the `FLOWISTRY_FAILPOINTS` environment variable
//! (read lazily on the first [`check`]) or programmatically via
//! [`configure`]. The grammar is a comma-separated list of site specs:
//!
//! ```text
//! FLOWISTRY_FAILPOINTS=site=mode[:p][:seed],...
//!
//! cache.shard_write=partial_write:0.5:42,backend.send=err:0.1
//! scheduler.job_start=delay(20):0.25
//! codec.frame_read=panic:0.01:0xDEAD
//! ```
//!
//! * `mode` — `err` (injected I/O error), `delay(ms)` (sleep),
//!   `partial_write` (truncate the write to a seeded fraction), `panic`;
//! * `p` — trigger probability in `[0, 1]`, default `1.0`;
//! * `seed` — per-site PRNG seed (decimal or `0x` hex); defaults to a
//!   stable hash of the site name, so unseeded schedules are still
//!   reproducible run to run.
//!
//! Every site draws its decisions from its own seeded xoshiro256++
//! stream, one draw per [`check`] call, so a given spec yields a
//! byte-identical fault schedule no matter how threads interleave *other*
//! sites: the i-th check of a site always gets the i-th decision of that
//! site's stream. Triggered faults are appended to a per-site log
//! ([`log_lines`]) for the determinism gate in CI, and
//! [`schedule_preview`] renders the first `n` decisions of each site in a
//! spec without touching global state at all.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The environment variable holding the failpoint spec.
pub const ENV_VAR: &str = "FLOWISTRY_FAILPOINTS";

/// Canonical site names wired through the stack. Using the constants (not
/// string literals) at call sites keeps specs, docs, and code in sync.
pub mod sites {
    /// Loading one on-disk summary-cache shard.
    pub const CACHE_SHARD_READ: &str = "cache.shard_read";
    /// Persisting one summary-cache shard (temp write + rename).
    pub const CACHE_SHARD_WRITE: &str = "cache.shard_write";
    /// Decoding one request frame off a server connection.
    pub const CODEC_FRAME_READ: &str = "codec.frame_read";
    /// Writing one response frame to a server connection.
    pub const CODEC_FRAME_WRITE: &str = "codec.frame_write";
    /// Opening a pooled router-to-backend connection.
    pub const BACKEND_CONNECT: &str = "backend.connect";
    /// Sending one routed request down a backend connection.
    pub const BACKEND_SEND: &str = "backend.send";
    /// Recompiling a program snapshot for a wire `update`.
    pub const UPDATE_RECOMPILE: &str = "update.recompile";
    /// Dequeuing one job in the service worker pool.
    pub const SCHEDULER_JOB_START: &str = "scheduler.job_start";
}

/// What a failpoint site decided mode-wise when it triggered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Err,
    Delay(u64),
    PartialWrite,
    Panic,
}

impl Mode {
    fn parse(text: &str) -> Result<Mode, String> {
        match text {
            "err" => Ok(Mode::Err),
            "partial_write" => Ok(Mode::PartialWrite),
            "panic" => Ok(Mode::Panic),
            other => {
                let inner = other
                    .strip_prefix("delay(")
                    .and_then(|rest| rest.strip_suffix(')'))
                    .ok_or_else(|| format!("unknown failpoint mode `{other}`"))?;
                let ms: u64 = inner
                    .parse()
                    .map_err(|_| format!("bad delay milliseconds `{inner}`"))?;
                Ok(Mode::Delay(ms))
            }
        }
    }
}

/// The decision a call site receives from [`check`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// No fault: proceed normally. The only decision when disabled.
    None,
    /// Fail the operation with an injected error.
    Err,
    /// Stall the operation for this long, then proceed.
    Delay(Duration),
    /// Tear the write: persist only this fraction (in `[0, 1)`) of the
    /// bytes, then report success as a crashed writer would have.
    PartialWrite(f64),
    /// Panic at the site.
    Panic,
}

impl Fault {
    fn describe(&self) -> String {
        match self {
            Fault::None => "none".to_string(),
            Fault::Err => "err".to_string(),
            Fault::Delay(d) => format!("delay({}ms)", d.as_millis()),
            Fault::PartialWrite(frac) => format!("partial_write({frac:.6})"),
            Fault::Panic => "panic".to_string(),
        }
    }
}

/// One configured site: its mode, trigger probability, and decision stream.
struct SiteState {
    mode: Mode,
    p: f64,
    rng: StdRng,
    hits: u64,
    log: Vec<String>,
}

impl SiteState {
    fn new(mode: Mode, p: f64, seed: u64) -> SiteState {
        SiteState {
            mode,
            p,
            rng: StdRng::seed_from_u64(seed),
            hits: 0,
            log: Vec::new(),
        }
    }

    /// Draws the next decision of this site's stream.
    fn decide(&mut self, site: &str) -> Fault {
        let hit = self.hits;
        self.hits += 1;
        if !self.rng.gen_bool(self.p) {
            return Fault::None;
        }
        let fault = match self.mode {
            Mode::Err => Fault::Err,
            Mode::Delay(ms) => Fault::Delay(Duration::from_millis(ms)),
            Mode::PartialWrite => Fault::PartialWrite(unit_fraction(&mut self.rng)),
            Mode::Panic => Fault::Panic,
        };
        self.log.push(format!("{site}#{hit} {}", fault.describe()));
        fault
    }
}

/// A float in `[0, 1)` from 53 uniform mantissa bits.
fn unit_fraction(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// FNV-1a over the site name: the default per-site seed, so unseeded
/// specs still replay identically.
fn site_seed(site: &str) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for byte in site.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

fn parse_seed(text: &str) -> Result<u64, String> {
    let hex = text.strip_prefix("0x").or_else(|| text.strip_prefix("0X"));
    match hex {
        Some(h) => u64::from_str_radix(h, 16).map_err(|_| format!("bad seed `{text}`")),
        None => text.parse().map_err(|_| format!("bad seed `{text}`")),
    }
}

/// Parses one spec list into per-site states. Pure: shared by
/// [`configure`] and [`schedule_preview`].
fn parse_spec(spec: &str) -> Result<BTreeMap<String, SiteState>, String> {
    let mut sites = BTreeMap::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (site, rest) = entry
            .split_once('=')
            .ok_or_else(|| format!("missing `=` in failpoint spec `{entry}`"))?;
        let site = site.trim();
        if site.is_empty() {
            return Err(format!("empty site name in `{entry}`"));
        }
        // `delay(20):0.5:7` — the mode may itself contain no `:`, so the
        // first colon after it separates the optional probability and seed.
        let mut parts = rest.splitn(3, ':');
        let mode = Mode::parse(parts.next().unwrap_or(""))?;
        let p = match parts.next() {
            Some(text) => {
                let p: f64 = text
                    .parse()
                    .map_err(|_| format!("bad probability `{text}`"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("probability out of range: {p}"));
                }
                p
            }
            None => 1.0,
        };
        let seed = match parts.next() {
            Some(text) => parse_seed(text)?,
            None => site_seed(site),
        };
        sites.insert(site.to_string(), SiteState::new(mode, p, seed));
    }
    Ok(sites)
}

const UNINIT: u8 = 0;
const DISABLED: u8 = 1;
const ENABLED: u8 = 2;

/// The disabled fast path reads only this: one relaxed atomic load.
static STATE: AtomicU8 = AtomicU8::new(UNINIT);
static REGISTRY: Mutex<Option<BTreeMap<String, SiteState>>> = Mutex::new(None);

/// Whether any failpoint is active (after lazy env initialization).
pub fn enabled() -> bool {
    if STATE.load(Ordering::Relaxed) == UNINIT {
        init_from_env();
    }
    STATE.load(Ordering::Relaxed) == ENABLED
}

/// Installs a failpoint spec, replacing any active one and clearing the
/// fault log. An empty spec disables every site.
pub fn configure(spec: &str) -> Result<(), String> {
    let sites = parse_spec(spec)?;
    let mut registry = REGISTRY.lock().unwrap();
    let state = if sites.is_empty() { DISABLED } else { ENABLED };
    *registry = Some(sites);
    STATE.store(state, Ordering::SeqCst);
    Ok(())
}

/// Disables every failpoint and drops the fault log.
pub fn clear() {
    let mut registry = REGISTRY.lock().unwrap();
    *registry = Some(BTreeMap::new());
    STATE.store(DISABLED, Ordering::SeqCst);
}

fn init_from_env() {
    let mut registry = REGISTRY.lock().unwrap();
    if STATE.load(Ordering::Relaxed) != UNINIT {
        return; // another thread won the race
    }
    let spec = std::env::var(ENV_VAR).unwrap_or_default();
    let sites = parse_spec(&spec).unwrap_or_else(|e| {
        eprintln!("flowistry-fault: ignoring bad {ENV_VAR}: {e}");
        BTreeMap::new()
    });
    let state = if sites.is_empty() { DISABLED } else { ENABLED };
    *registry = Some(sites);
    STATE.store(state, Ordering::SeqCst);
}

/// Evaluates the failpoint at `site`. When no faults are configured this
/// is one relaxed atomic load and returns [`Fault::None`]; when the site
/// is configured it consumes the next decision of the site's seeded
/// stream. [`Fault::Delay`] is returned, not slept, so call sites can
/// place the stall precisely.
#[inline]
pub fn check(site: &str) -> Fault {
    if STATE.load(Ordering::Relaxed) == DISABLED {
        return Fault::None;
    }
    check_slow(site)
}

#[cold]
fn check_slow(site: &str) -> Fault {
    if STATE.load(Ordering::Relaxed) == UNINIT {
        init_from_env();
        if STATE.load(Ordering::Relaxed) == DISABLED {
            return Fault::None;
        }
    }
    let mut registry = REGISTRY.lock().unwrap();
    match registry.as_mut().and_then(|sites| sites.get_mut(site)) {
        Some(state) => state.decide(site),
        None => Fault::None,
    }
}

/// The error an `err`-mode failpoint injects; stable text so operators
/// and tests can recognize injected faults in logs.
pub fn injected_error(site: &str) -> io::Error {
    io::Error::other(format!("failpoint {site}: injected error"))
}

/// The triggered-fault log: every fault fired since the last
/// [`configure`]/[`clear`], ordered by site name and then by hit number
/// within the site. Thread interleavings cannot change this rendering,
/// because each site's stream is totally ordered by its own hit counter.
pub fn log_lines() -> Vec<String> {
    let registry = REGISTRY.lock().unwrap();
    let mut lines = Vec::new();
    if let Some(sites) = registry.as_ref() {
        for state in sites.values() {
            lines.extend(state.log.iter().cloned());
        }
    }
    lines
}

/// [`log_lines`], then clears the per-site logs (hit counters and RNG
/// streams keep advancing — only the rendered log resets).
pub fn take_log() -> Vec<String> {
    let mut registry = REGISTRY.lock().unwrap();
    let mut lines = Vec::new();
    if let Some(sites) = registry.as_mut() {
        for state in sites.values_mut() {
            lines.append(&mut state.log);
        }
    }
    lines
}

/// Renders the first `per_site` decisions of every site in `spec`
/// without touching the global registry: the canonical fault schedule
/// for a seed, used by the CI determinism gate. Two calls with the same
/// spec always return byte-identical lines.
pub fn schedule_preview(spec: &str, per_site: usize) -> Result<Vec<String>, String> {
    let mut sites = parse_spec(spec)?;
    let mut lines = Vec::new();
    for (site, state) in sites.iter_mut() {
        for _ in 0..per_site {
            let fault = state.decide(site);
            if fault == Fault::None {
                lines.push(format!("{site}#{} none", state.hits - 1));
            }
        }
        lines.append(&mut state.log);
        // decide() logs triggered faults out of band; interleave them
        // back into hit order so the preview reads as one stream.
        lines.sort_by_key(|line| {
            let (head, _) = line.split_once(' ').unwrap_or((line.as_str(), ""));
            let (site, hit) = head.split_once('#').unwrap_or((head, "0"));
            (site.to_string(), hit.parse::<u64>().unwrap_or(0))
        });
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global state forces the tests that touch it to run one at a time.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn disabled_sites_return_none() {
        let _guard = lock();
        clear();
        assert_eq!(check(sites::CACHE_SHARD_READ), Fault::None);
        assert!(!enabled());
        assert!(log_lines().is_empty());
    }

    #[test]
    fn grammar_round_trips_every_mode() {
        let _guard = lock();
        configure("a=err,b=delay(25),c=partial_write:1.0:7,d=panic:0.0").unwrap();
        assert!(enabled());
        assert_eq!(check("a"), Fault::Err);
        assert_eq!(check("b"), Fault::Delay(Duration::from_millis(25)));
        match check("c") {
            Fault::PartialWrite(frac) => assert!((0.0..1.0).contains(&frac)),
            other => panic!("expected partial write, got {other:?}"),
        }
        // p = 0: the panic site never fires.
        for _ in 0..64 {
            assert_eq!(check("d"), Fault::None);
        }
        assert_eq!(check("unconfigured"), Fault::None);
        clear();
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in [
            "a",
            "a=warp",
            "a=delay(x)",
            "a=err:2.0",
            "a=err:0.5:zz",
            "=err",
        ] {
            assert!(parse_spec(bad).is_err(), "spec `{bad}` should not parse");
        }
    }

    #[test]
    fn same_seed_yields_identical_schedule() {
        let spec = "x=err:0.3:42,y=delay(5):0.7:43,z=partial_write:0.5:44";
        let a = schedule_preview(spec, 100).unwrap();
        let b = schedule_preview(spec, 100).unwrap();
        assert_eq!(a, b);
        // A different seed diverges.
        let c =
            schedule_preview("x=err:0.3:99,y=delay(5):0.7:43,z=partial_write:0.5:44", 100).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn unseeded_sites_default_to_a_stable_name_hash() {
        let a = schedule_preview("x=err:0.5", 50).unwrap();
        let b = schedule_preview(&format!("x=err:0.5:{}", site_seed("x")), 50).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn live_log_matches_preview() {
        let _guard = lock();
        let spec = "p=err:0.4:7";
        configure(spec).unwrap();
        for _ in 0..40 {
            let _ = check("p");
        }
        let live = log_lines();
        let preview: Vec<String> = schedule_preview(spec, 40)
            .unwrap()
            .into_iter()
            .filter(|line| !line.ends_with(" none"))
            .collect();
        assert_eq!(live, preview);
        // take_log drains, a second read is empty.
        assert_eq!(take_log(), live);
        assert!(log_lines().is_empty());
        clear();
    }

    #[test]
    fn probability_is_roughly_respected() {
        let lines = schedule_preview("q=err:0.25:11", 4000).unwrap();
        let fired = lines.iter().filter(|l| l.ends_with(" err")).count();
        assert!(
            (800..1200).contains(&fired),
            "0.25 over 4000 draws fired {fired} times"
        );
    }
}
