//! Deterministic seeded fault injection for the whole workspace.
//!
//! The plan is configured once per process from `SUBMOD_FAULTS` (or
//! programmatically via [`override_plan`] in tests) and consulted by the
//! layers that touch the outside world: dataflow spill I/O, graph-store
//! opens, `submod_mman` mappings, `submod_exec` regions, and the
//! journal's round-boundary hook. Every decision is a pure function of
//! the plan seed and a per-site draw counter — rerunning the same binary
//! with the same plan injects the same faults at the same sites, which is
//! what makes the fault-injection suites reproducible.
//!
//! # Knob
//!
//! `SUBMOD_FAULTS=<mode>[:<seed>[:<rate>]]` (seed `0xFA17` and rate
//! `0.02` by default), parsed once per process:
//!
//! | mode            | behaviour                                                        |
//! |-----------------|------------------------------------------------------------------|
//! | `off`           | nothing injected (the default, and a branch on one atomic load)  |
//! | `transient-io`  | I/O sites fail with a retriable error; the next attempt succeeds |
//! | `permanent-io`  | the first triggered I/O site is poisoned and fails forever       |
//! | `mmap-open`     | every `submod_mman` mapping fails permanently (fallback paths)   |
//! | `panic`         | one seeded panic inside a `submod_exec` region                   |
//! | `crash-round-N` | `process::abort()` after round `N`'s journal sync                |
//!
//! Transient faults are **self-clearing**: a site that just injected a
//! failure never injects one on the immediately following attempt (a
//! per-thread suppression bit), so a bounded retry loop always converges
//! — a run under `transient-io` is green by construction, not by luck.
//!
//! Injected errors are ordinary [`std::io::Error`]s carrying the
//! [`INJECTED_MARKER`] in their message. Every I/O site gates its real
//! operation with [`check_io`], the one retry loop (4 attempts): it
//! retries injected transient faults to the **fault-free answer** and
//! surfaces everything else. Permanent faults become the layer's typed
//! error, never a panic, with the marker kept in the error chain;
//! `mmap-open` drives the store's owned-read fallback; RAII guards keep
//! an aborted run from leaking partial spill files. The `faults.injected`
//! and `faults.retries` counters make every injection and retry visible.
//! The facade's `tests/invariance.rs` runs `transient-io` at rate 1 in
//! some rows, so spill, store and journal I/O is retried throughout and
//! must select the same bits as the fault-free rows, and
//! `submod_dist`'s `tests/fault_injection.rs` pins all six modes.

use std::cell::Cell;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Fault sites the workspace instruments, in draw-counter order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum FaultSite {
    /// A write into a dataflow spill file.
    SpillWrite = 0,
    /// A read out of a dataflow spill file.
    SpillRead = 1,
    /// Creating or opening a dataflow spill file.
    SpillOpen = 2,
    /// Opening a graph-store file.
    StoreOpen = 3,
    /// A `submod_mman` mapping attempt.
    MmanMap = 4,
    /// Entry into a `submod_exec` parallel region.
    ExecRegion = 5,
    /// A journal append or sync.
    JournalWrite = 6,
}

/// Number of instrumented sites.
const FAULT_SITES: usize = 7;

impl FaultSite {
    /// Stable human-readable name (used in injected error messages).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::SpillWrite => "spill-write",
            FaultSite::SpillRead => "spill-read",
            FaultSite::SpillOpen => "spill-open",
            FaultSite::StoreOpen => "store-open",
            FaultSite::MmanMap => "mman-map",
            FaultSite::ExecRegion => "exec-region",
            FaultSite::JournalWrite => "journal-write",
        }
    }
}

/// What a plan injects.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultMode {
    /// Nothing is injected.
    Off,
    /// Retriable I/O failures; the attempt after an injection succeeds.
    TransientIo,
    /// The first triggered I/O site poisons itself and fails forever.
    PermanentIo,
    /// Every mapping attempt fails permanently (exercises owned-backing
    /// fallbacks).
    MmapOpen,
    /// One seeded panic inside an exec region.
    Panic,
    /// `process::abort()` right after round `N`'s journal sync.
    CrashRound(u64),
}

/// A full fault plan: the mode plus the deterministic draw parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// What to inject.
    pub mode: FaultMode,
    /// Seed of the per-site draw sequence.
    pub seed: u64,
    /// Probability a draw triggers, in `[0, 1]`.
    pub rate: f64,
}

impl FaultPlan {
    /// The inert plan.
    pub fn off() -> FaultPlan {
        FaultPlan { mode: FaultMode::Off, seed: 0, rate: 0.0 }
    }

    /// Parses `<mode>[:<seed>[:<rate>]]` (the `SUBMOD_FAULTS` syntax).
    /// Unknown or malformed specs parse as [`FaultPlan::off`] — a fault
    /// knob must never take the process down on a typo.
    pub fn parse(spec: &str) -> FaultPlan {
        let mut parts = spec.split(':');
        let mode = match parts.next().unwrap_or("").trim() {
            "transient-io" => FaultMode::TransientIo,
            "permanent-io" => FaultMode::PermanentIo,
            "mmap-open" => FaultMode::MmapOpen,
            "panic" => FaultMode::Panic,
            other => {
                if let Some(n) = other.strip_prefix("crash-round-") {
                    match n.parse::<u64>() {
                        Ok(round) => FaultMode::CrashRound(round),
                        Err(_) => return FaultPlan::off(),
                    }
                } else {
                    return FaultPlan::off();
                }
            }
        };
        let seed = parts.next().and_then(|s| s.trim().parse::<u64>().ok()).unwrap_or(0xFA17);
        let rate = parts
            .next()
            .and_then(|s| s.trim().parse::<f64>().ok())
            .filter(|r| r.is_finite() && (0.0..=1.0).contains(r))
            .unwrap_or(0.02);
        FaultPlan { mode, seed, rate }
    }
}

/// Marker substring carried by every injected error message.
pub const INJECTED_MARKER: &str = "submod injected fault";

// Encoded plan state. MODE doubles as the init latch: `MODE_UNSET` means
// "read SUBMOD_FAULTS on first use".
const MODE_UNSET: u8 = u8::MAX;
static MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);
static SEED: AtomicU64 = AtomicU64::new(0);
static RATE_BITS: AtomicU64 = AtomicU64::new(0);
static CRASH_ROUND: AtomicU64 = AtomicU64::new(0);
/// Bumped by every plan override so per-thread suppression state resets.
static EPOCH: AtomicU64 = AtomicU64::new(0);
/// Per-site draw counters (the deterministic sequence position).
static DRAWS: [AtomicU64; FAULT_SITES] = [const { AtomicU64::new(0) }; FAULT_SITES];
/// Per-site sticky poison bits (permanent modes).
static POISONED: [AtomicBool; FAULT_SITES] = [const { AtomicBool::new(false) }; FAULT_SITES];
/// One-shot latch for the panic mode.
static PANIC_FIRED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// `(epoch, per-site suppression bits)`: a site that just injected a
    /// transient fault on this thread skips its next draw.
    static SUPPRESS: Cell<(u64, u8)> = const { Cell::new((0, 0)) };
}

fn encode_mode(mode: FaultMode) -> u8 {
    match mode {
        FaultMode::Off => 0,
        FaultMode::TransientIo => 1,
        FaultMode::PermanentIo => 2,
        FaultMode::MmapOpen => 3,
        FaultMode::Panic => 4,
        FaultMode::CrashRound(_) => 5,
    }
}

fn install(plan: FaultPlan) {
    SEED.store(plan.seed, Ordering::Relaxed);
    RATE_BITS.store(plan.rate.to_bits(), Ordering::Relaxed);
    if let FaultMode::CrashRound(round) = plan.mode {
        CRASH_ROUND.store(round, Ordering::Relaxed);
    }
    for draw in &DRAWS {
        draw.store(0, Ordering::Relaxed);
    }
    for poison in &POISONED {
        poison.store(false, Ordering::Relaxed);
    }
    PANIC_FIRED.store(false, Ordering::Relaxed);
    EPOCH.fetch_add(1, Ordering::Relaxed);
    // Mode last: it is the flag every fast path branches on.
    MODE.store(encode_mode(plan.mode), Ordering::Release);
}

fn mode_byte() -> u8 {
    let mode = MODE.load(Ordering::Acquire);
    if mode != MODE_UNSET {
        return mode;
    }
    let plan = std::env::var("SUBMOD_FAULTS")
        .map(|s| FaultPlan::parse(&s))
        .unwrap_or_else(|_| FaultPlan::off());
    install(plan);
    MODE.load(Ordering::Acquire)
}

/// The active mode.
pub fn mode() -> FaultMode {
    match mode_byte() {
        1 => FaultMode::TransientIo,
        2 => FaultMode::PermanentIo,
        3 => FaultMode::MmapOpen,
        4 => FaultMode::Panic,
        5 => FaultMode::CrashRound(CRASH_ROUND.load(Ordering::Relaxed)),
        _ => FaultMode::Off,
    }
}

/// The workspace's splitmix64 of `x` plus the golden-ratio constant.
fn mix(x: u64) -> u64 {
    crate::format::splitmix64(x.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// Whether draw `n` of `site` triggers under the current seed/rate.
fn draw_triggers(site: FaultSite, n: u64) -> bool {
    let seed = SEED.load(Ordering::Relaxed);
    let rate = f64::from_bits(RATE_BITS.load(Ordering::Relaxed));
    let h = mix(seed ^ (site as u64).wrapping_mul(0x9E37_79B9) ^ n.rotate_left(17));
    // Top 53 bits → uniform in [0, 1).
    ((h >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < rate
}

fn suppressed(site: FaultSite) -> bool {
    let epoch = EPOCH.load(Ordering::Relaxed);
    SUPPRESS.with(|cell| {
        let (e, bits) = cell.get();
        if e != epoch {
            cell.set((epoch, 0));
            return false;
        }
        let bit = 1u8 << (site as usize);
        if bits & bit != 0 {
            cell.set((epoch, bits & !bit));
            true
        } else {
            false
        }
    })
}

fn suppress_next(site: FaultSite) {
    let epoch = EPOCH.load(Ordering::Relaxed);
    SUPPRESS.with(|cell| {
        let (e, bits) = cell.get();
        let bits = if e == epoch { bits } else { 0 };
        cell.set((epoch, bits | 1u8 << (site as usize)));
    });
}

fn injected_error(site: FaultSite, transient: bool, n: u64) -> io::Error {
    crate::counter("faults.injected").incr();
    let message = format!(
        "{INJECTED_MARKER}: {} I/O error at site {} (draw {n})",
        if transient { "transient" } else { "permanent" },
        site.name()
    );
    if transient {
        io::Error::new(io::ErrorKind::Interrupted, message)
    } else {
        io::Error::other(message)
    }
}

/// Consults the plan at an I/O site. `None` means proceed; `Some(err)`
/// means the operation must fail with `err` *instead of running*.
///
/// Transient injections set the per-thread suppression bit, so the
/// caller's immediate retry succeeds. Permanent injections poison the
/// site: every later call fails too (a disk that died stays dead).
fn inject_io(site: FaultSite) -> Option<io::Error> {
    match mode_byte() {
        1 => {
            // transient-io
            if suppressed(site) {
                return None;
            }
            let n = DRAWS[site as usize].fetch_add(1, Ordering::Relaxed);
            if draw_triggers(site, n) {
                suppress_next(site);
                return Some(injected_error(site, true, n));
            }
            None
        }
        2 => {
            // permanent-io
            if POISONED[site as usize].load(Ordering::Relaxed) {
                return Some(injected_error(site, false, u64::MAX));
            }
            let n = DRAWS[site as usize].fetch_add(1, Ordering::Relaxed);
            if draw_triggers(site, n) {
                POISONED[site as usize].store(true, Ordering::Relaxed);
                return Some(injected_error(site, false, n));
            }
            None
        }
        3 if site == FaultSite::MmanMap => {
            // mmap-open: every mapping attempt fails, permanently.
            let n = DRAWS[site as usize].fetch_add(1, Ordering::Relaxed);
            Some(injected_error(site, false, n))
        }
        _ => None,
    }
}

/// Consults the plan at an exec-region entry; panics exactly once per
/// plan when the seeded draw triggers.
pub fn inject_panic(site: FaultSite) {
    if mode_byte() != 4 {
        return;
    }
    let n = DRAWS[site as usize].fetch_add(1, Ordering::Relaxed);
    if draw_triggers(site, n)
        && PANIC_FIRED.compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed).is_ok()
    {
        crate::counter("faults.injected").incr();
        panic!("{INJECTED_MARKER}: panic at site {} (draw {n})", site.name());
    }
}

/// Aborts the process when the plan says "crash after round `round`".
/// Called by the journal integration right after the round's fsync — the
/// on-disk journal is complete up to this boundary, which is exactly the
/// state a real crash would leave behind.
pub fn maybe_crash_after_round(round: u64) {
    if mode_byte() == 5 && CRASH_ROUND.load(Ordering::Relaxed) == round {
        eprintln!("{INJECTED_MARKER}: simulated crash after round {round}");
        std::process::abort();
    }
}

/// `true` when `err` is an injected *transient* fault — the only class a
/// retry loop should retry (real errors and permanent injections must
/// surface immediately).
fn is_injected_transient(err: &io::Error) -> bool {
    err.kind() == io::ErrorKind::Interrupted
        && err.get_ref().is_some_and(|inner| inner.to_string().contains(INJECTED_MARKER))
}

/// Maximum attempts a transient-I/O retry loop makes (the first attempt
/// plus up to three retries).
const MAX_IO_ATTEMPTS: usize = 4;

/// Bounded exponential backoff between transient-I/O retries: 0, then
/// 1 ms, 2 ms, 4 ms. Also charges the `faults.retries` counter — the
/// observable proof that degraded operation was retried, never silent.
fn backoff(attempt: usize) {
    crate::counter("faults.retries").incr();
    if attempt > 0 {
        std::thread::sleep(std::time::Duration::from_millis(1u64 << (attempt - 1).min(4)));
    }
}

/// The retry-aware gate every instrumented I/O site calls: injected
/// transient faults are retried (with a bounded backoff that charges
/// `faults.retries`) until they self-clear, a permanent injection
/// exhausts the attempts and surfaces as the final error, and no fault
/// means proceed. Callers run the real operation only after this returns
/// `Ok(())`.
pub fn check_io(site: FaultSite) -> io::Result<()> {
    for attempt in 0..MAX_IO_ATTEMPTS {
        match inject_io(site) {
            Some(err) if is_injected_transient(&err) && attempt + 1 < MAX_IO_ATTEMPTS => {
                backoff(attempt);
            }
            Some(err) => return Err(err),
            None => return Ok(()),
        }
    }
    unreachable!("the retry loop always returns within MAX_IO_ATTEMPTS")
}

static PLAN_LOCK: OnceLock<Mutex<()>> = OnceLock::new();

/// Guard returned by [`override_plan`]; restores the previous plan (and
/// releases the cross-test serialization lock) on drop.
pub struct PlanGuard {
    previous: FaultPlan,
    _lock: MutexGuard<'static, ()>,
}

impl Drop for PlanGuard {
    fn drop(&mut self) {
        install(self.previous);
    }
}

/// Installs `plan` for the current process, returning a guard that
/// restores the previous plan on drop. Serialized by a global mutex so
/// concurrent tests never interleave plans; a poisoned lock (a panicking
/// fault test is the *point*) is recovered, not propagated.
pub fn override_plan(plan: FaultPlan) -> PlanGuard {
    let lock = PLAN_LOCK
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poison| poison.into_inner());
    let previous = mode_with_params();
    install(plan);
    PlanGuard { previous, _lock: lock }
}

fn mode_with_params() -> FaultPlan {
    FaultPlan {
        mode: mode(),
        seed: SEED.load(Ordering::Relaxed),
        rate: f64::from_bits(RATE_BITS.load(Ordering::Relaxed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_knob_matrix() {
        assert_eq!(FaultPlan::parse("off").mode, FaultMode::Off);
        assert_eq!(FaultPlan::parse("transient-io").mode, FaultMode::TransientIo);
        assert_eq!(FaultPlan::parse("permanent-io:9:0.5").seed, 9);
        assert!((FaultPlan::parse("permanent-io:9:0.5").rate - 0.5).abs() < 1e-12);
        assert_eq!(FaultPlan::parse("mmap-open").mode, FaultMode::MmapOpen);
        assert_eq!(FaultPlan::parse("panic:3").mode, FaultMode::Panic);
        assert_eq!(FaultPlan::parse("crash-round-4").mode, FaultMode::CrashRound(4));
        // Typos and junk degrade to off, never panic.
        assert_eq!(FaultPlan::parse("explode").mode, FaultMode::Off);
        assert_eq!(FaultPlan::parse("crash-round-x").mode, FaultMode::Off);
        assert_eq!(FaultPlan::parse("transient-io:nope:2.0").seed, 0xFA17);
        assert!((FaultPlan::parse("transient-io:1:7.5").rate - 0.02).abs() < 1e-12);
    }

    #[test]
    fn transient_faults_self_clear() {
        let _guard = override_plan(FaultPlan { mode: FaultMode::TransientIo, seed: 11, rate: 1.0 });
        // Rate 1.0: every draw triggers, but each injection suppresses the
        // next attempt — fail, succeed, fail, succeed.
        assert!(inject_io(FaultSite::SpillWrite).is_some());
        assert!(inject_io(FaultSite::SpillWrite).is_none());
        assert!(inject_io(FaultSite::SpillWrite).is_some());
        assert!(inject_io(FaultSite::SpillWrite).is_none());
        // Suppression is per-site: a different site still faults.
        assert!(inject_io(FaultSite::SpillWrite).is_some());
        assert!(inject_io(FaultSite::SpillRead).is_some());
    }

    #[test]
    fn permanent_faults_stick() {
        let _guard = override_plan(FaultPlan { mode: FaultMode::PermanentIo, seed: 5, rate: 1.0 });
        let first = inject_io(FaultSite::StoreOpen).expect("rate 1.0 must trigger");
        assert!(!is_injected_transient(&first));
        for _ in 0..3 {
            assert!(inject_io(FaultSite::StoreOpen).is_some(), "poisoned site stays failed");
        }
    }

    #[test]
    fn injected_errors_are_recognizable() {
        let _guard = override_plan(FaultPlan { mode: FaultMode::TransientIo, seed: 3, rate: 1.0 });
        let err = inject_io(FaultSite::JournalWrite).expect("rate 1.0 must trigger");
        assert!(is_injected_transient(&err));
        assert!(err.to_string().contains(INJECTED_MARKER));
        // A real interrupted error without the marker is not "injected".
        let real = io::Error::new(io::ErrorKind::Interrupted, "spurious wakeup");
        assert!(!is_injected_transient(&real));
    }

    #[test]
    fn off_mode_injects_nothing() {
        let _guard = override_plan(FaultPlan::off());
        for _ in 0..64 {
            assert!(inject_io(FaultSite::SpillWrite).is_none());
        }
        inject_panic(FaultSite::ExecRegion); // must not panic
        maybe_crash_after_round(1); // must not abort
    }

    #[test]
    fn draws_are_deterministic_for_a_seed() {
        let sequence = |seed: u64| -> Vec<bool> {
            let _guard = override_plan(FaultPlan { mode: FaultMode::PermanentIo, seed, rate: 0.3 });
            // Permanent mode pins no suppression state; read the raw draw
            // sequence up to (and including) the first trigger.
            (0..32).map(|n| draw_triggers(FaultSite::SpillRead, n)).collect()
        };
        assert_eq!(sequence(42), sequence(42));
        assert_ne!(sequence(42), sequence(43), "different seeds must differ somewhere");
    }

    #[test]
    fn panic_mode_fires_exactly_once() {
        let _guard = override_plan(FaultPlan { mode: FaultMode::Panic, seed: 1, rate: 1.0 });
        let result = std::panic::catch_unwind(|| inject_panic(FaultSite::ExecRegion));
        assert!(result.is_err(), "rate 1.0 must panic on the first draw");
        // The latch has fired: later draws stay quiet.
        inject_panic(FaultSite::ExecRegion);
    }
}
