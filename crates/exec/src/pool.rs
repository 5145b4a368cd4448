//! The work-stealing region runner: [`scope`], [`join`], and
//! [`parallel_map`].
//!
//! A *region* is a fixed family of tasks serviced by the caller's
//! thread (always worker 0) plus up to `t − 1` helpers *attached from
//! the process-lifetime worker set* (`crate::workers`) — region entry
//! publishes the region and wakes parked persistent workers instead of
//! spawning OS threads, so at steady state entering a region costs a
//! mutex hop and a condvar signal ([`region_entry_nanos`] meters it,
//! [`region_entry_spawn_count`] pins that spawning stops). A region
//! entered with one thread (or from inside another region) runs inline
//! with zero dispatch.

use crate::threads::{current_num_threads, enter_worker, in_worker};
use crate::workers;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Tasks per worker that [`parallel_map`] aims for: small enough that an
/// uneven workload leaves chunks to steal, large enough that queue
/// traffic stays negligible.
const CHUNKS_PER_WORKER: usize = 4;

static STEALS: AtomicU64 = AtomicU64::new(0);

/// Cumulative count of successful steals across all regions in this
/// process (a task taken from *another* worker's deque, not from the
/// global injector). Exposed for the pool's own tests and for ad-hoc
/// diagnostics; never used for control flow.
pub fn steal_count() -> u64 {
    STEALS.load(Ordering::Relaxed)
}

static PARKS: AtomicU64 = AtomicU64::new(0);

/// Cumulative count of condvar parks across all regions: a worker found
/// no runnable task and went to sleep on the region's condition variable
/// (instead of spinning or sleep-polling). Exposed for the pool's tests.
pub fn park_count() -> u64 {
    PARKS.load(Ordering::Relaxed)
}

static IDLE_POLLS: AtomicU64 = AtomicU64::new(0);

/// Cumulative count of empty idle polls (a worker scanned every queue and
/// found nothing). With condvar parking this stays bounded by
/// O(workers) per region — the pool's no-busy-wait regression tests
/// assert it does not grow with how *long* workers sit idle.
pub fn idle_poll_count() -> u64 {
    IDLE_POLLS.load(Ordering::Relaxed)
}

static REGION_ENTRIES: AtomicU64 = AtomicU64::new(0);

/// Cumulative count of non-inline region entries (a [`scope`] that
/// dispatched helpers from the persistent worker set).
pub fn region_entry_count() -> u64 {
    REGION_ENTRIES.load(Ordering::Relaxed)
}

static REGION_SPAWNS: AtomicU64 = AtomicU64::new(0);

/// Cumulative count of OS threads spawned *at region entry* because the
/// persistent worker set had fewer idle workers than the region wanted.
/// At steady state this stops growing — the regression tests assert
/// that repeated region entries add zero.
pub fn region_entry_spawn_count() -> u64 {
    REGION_SPAWNS.load(Ordering::Relaxed)
}

static REGION_ENTRY_NANOS: AtomicU64 = AtomicU64::new(0);

/// Cumulative nanoseconds spent *entering* regions (publishing to the
/// worker set, spawning any missing workers, waking parked ones) —
/// the latency the persistent set exists to shrink. Task execution time
/// is not included.
pub fn region_entry_nanos() -> u64 {
    REGION_ENTRY_NANOS.load(Ordering::Relaxed)
}

/// A queued task: boxed so heterogeneous closures share one deque. The
/// task receives the scope so it can spawn follow-up work (which lands in
/// the global injector).
type Job<'scope> = Box<dyn for<'a> FnOnce(&'a Scope<'scope>) + Send + 'scope>;

/// A parallel region accepting scoped task spawns — the pool analogue of
/// `rayon::Scope`.
///
/// Tasks spawned before the region starts (from the `scope` closure) are
/// seeded round-robin across per-worker deques; tasks spawned *by tasks*
/// go to the shared injector. Execution begins when the `scope` closure
/// returns and [`scope`] only returns once every task (including
/// recursively spawned ones) has finished.
pub struct Scope<'scope> {
    threads: usize,
    /// Inline regions (one thread, or nested inside a worker) execute
    /// tasks immediately on `spawn`.
    inline: bool,
    injector: Mutex<VecDeque<Job<'scope>>>,
    locals: Vec<Mutex<VecDeque<Job<'scope>>>>,
    /// Tasks spawned but not yet completed (or dropped by poisoning).
    outstanding: AtomicUsize,
    /// Tasks queued but not yet popped — the conservative "is there
    /// anything to run?" signal the parking protocol checks.
    queued: AtomicUsize,
    /// Round-robin cursor for seeding pre-region spawns.
    seed_cursor: AtomicUsize,
    /// Set when a task panicked: queued tasks are drained and dropped.
    poisoned: AtomicBool,
    /// First captured panic payload, re-raised after the region parks.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    /// Parking lot for idle workers: a worker that finds no runnable task
    /// waits on this condvar; [`Scope::spawn`] unparks one worker per new
    /// task and the last completion wakes everyone so the region can
    /// exit. No idle worker ever spins or sleep-polls. The region owner
    /// also waits here for every attached helper to detach before
    /// returning.
    parking: Mutex<()>,
    wakeup: Condvar,
    /// Helpers from the persistent worker set currently servicing this
    /// region; incremented under the worker-set mutex at attach, drained
    /// to zero before [`Scope::run`] returns.
    attached: AtomicUsize,
}

impl<'scope> Scope<'scope> {
    fn new(threads: usize, inline: bool) -> Self {
        Scope {
            threads,
            inline,
            injector: Mutex::new(VecDeque::new()),
            locals: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            outstanding: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            seed_cursor: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            parking: Mutex::new(()),
            wakeup: Condvar::new(),
            attached: AtomicUsize::new(0),
        }
    }

    /// Queues `f` for execution in this region. The closure receives the
    /// scope again so it can spawn follow-up tasks.
    pub fn spawn<F>(&self, f: F)
    where
        F: for<'a> FnOnce(&'a Scope<'scope>) + Send + 'scope,
    {
        if self.inline {
            f(self);
            return;
        }
        self.outstanding.fetch_add(1, Ordering::SeqCst);
        // `queued` rises *before* the push: a racing worker that pops the
        // job immediately must never decrement the counter below zero. A
        // parker glimpsing the transient over-count merely re-polls once.
        let depth = self.queued.fetch_add(1, Ordering::SeqCst) + 1;
        submod_obs::gauge!("exec.queue_depth_peak").fetch_max(depth as u64);
        // Capture the spawner's open span so spans opened inside the task
        // nest under it no matter which worker ends up running the job.
        let parent = submod_obs::current_span();
        let job: Job<'scope> = Box::new(move |s| submod_obs::with_parent(parent, || f(s)));
        if in_worker() {
            // Spawned from inside a task: every worker may pick it up.
            self.injector.lock().expect("injector").push_back(job);
        } else {
            let w = self.seed_cursor.fetch_add(1, Ordering::Relaxed) % self.threads;
            self.locals[w].lock().expect("local deque").push_back(job);
        }
        // Unpark one idle worker. Taking the parking lock first makes the
        // wakeup race-free: a worker checks `queued` under this lock
        // before waiting, so it either sees the new task or receives the
        // notification.
        let _guard = self.parking.lock().expect("parking mutex");
        self.wakeup.notify_one();
    }

    /// Runs the region to completion: the calling thread becomes worker 0
    /// and up to `threads − 1` helpers attach from the persistent worker
    /// set — never more than the queued tasks could occupy (a two-task
    /// `join` on an 8-thread pool requests one helper, not 7), and none
    /// at all for a single-worker region.
    fn run(&self) {
        let queued = self.outstanding.load(Ordering::SeqCst);
        if queued == 0 {
            return;
        }
        let helpers = self.threads.min(queued) - 1;
        if helpers > 0 {
            let entry = Instant::now();
            let spawned = workers::dispatch(workers::RegionJob {
                scope: (self as *const Self).cast(),
                attach: attach_erased,
                run: run_erased,
                slots: helpers,
                next_index: 1,
            });
            REGION_ENTRIES.fetch_add(1, Ordering::Relaxed);
            REGION_SPAWNS.fetch_add(spawned as u64, Ordering::Relaxed);
            REGION_ENTRY_NANOS.fetch_add(entry.elapsed().as_nanos() as u64, Ordering::Relaxed);
            submod_obs::counter!("exec.region_entries").incr();
            submod_obs::counter!("exec.region_spawns").add(spawned as u64);
            submod_obs::counter!("exec.region_entry_nanos").add(entry.elapsed().as_nanos() as u64);
        }
        // Close the region even if `work` unwinds: the guard retires the
        // published job and waits out every attached helper, so no
        // persistent worker can ever touch `self` after `run` leaves —
        // by return *or* by panic. (The old `std::thread::scope` version
        // got this from the scope join.)
        let _close = RegionCloseGuard { scope: if helpers > 0 { Some(self) } else { None } };
        self.work(0);
    }

    /// Re-raises the first captured task panic, if any.
    fn rethrow(&self) {
        if let Some(payload) = self.panic.lock().expect("panic slot").take() {
            panic::resume_unwind(payload);
        }
    }

    /// One worker's service loop: own deque first, then the injector,
    /// then steal from a sibling; exit once nothing is outstanding.
    fn work(&self, me: usize) {
        let _guard = enter_worker();
        // Consecutive empty polls; drives the idle parking below.
        let mut idle_polls = 0u32;
        loop {
            if self.poisoned.load(Ordering::SeqCst) {
                self.drain();
            }
            if self.outstanding.load(Ordering::SeqCst) == 0 {
                return;
            }
            match self.next_job(me) {
                Some(job) => {
                    idle_polls = 0;
                    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| job(self))) {
                        self.panic.lock().expect("panic slot").get_or_insert(payload);
                        self.poisoned.store(true, Ordering::SeqCst);
                        self.wake_all();
                    }
                    if self.outstanding.fetch_sub(1, Ordering::SeqCst) == 1 {
                        // Last task done: wake every parked worker so the
                        // region can exit.
                        self.wake_all();
                    }
                }
                None => {
                    // Another worker still runs a task that may spawn
                    // follow-ups, so this worker cannot exit yet. Yield
                    // a few times for low-latency pickup, then park on
                    // the condvar: zero CPU until a spawn, the final
                    // completion, or a poisoning unparks us.
                    IDLE_POLLS.fetch_add(1, Ordering::Relaxed);
                    idle_polls += 1;
                    if idle_polls < 16 {
                        std::thread::yield_now();
                    } else {
                        self.park();
                    }
                }
            }
        }
    }

    /// Blocks until something changes: a task is queued or the region has
    /// nothing left outstanding. The `queued` check under the parking
    /// lock pairs with the lock acquisition in [`Scope::spawn`], so a
    /// wakeup can never be lost. Parking is deliberately allowed in a
    /// *poisoned* region too — the queues were drained before we got
    /// here, and the straggler whose completion zeroes `outstanding`
    /// performs a `wake_all`; refusing to wait would leave every idle
    /// worker hot-spinning on the queue locks for the straggler's whole
    /// runtime.
    fn park(&self) {
        let guard = self.parking.lock().expect("parking mutex");
        if self.queued.load(Ordering::SeqCst) == 0 && self.outstanding.load(Ordering::SeqCst) != 0 {
            PARKS.fetch_add(1, Ordering::Relaxed);
            submod_obs::counter!("exec.parks").incr();
            drop(self.wakeup.wait(guard).expect("parking condvar"));
        }
    }

    /// Wakes every parked worker (region exit or poisoning).
    fn wake_all(&self) {
        let _guard = self.parking.lock().expect("parking mutex");
        self.wakeup.notify_all();
    }

    fn next_job(&self, me: usize) -> Option<Job<'scope>> {
        if let Some(job) = self.locals[me].lock().expect("local deque").pop_front() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Some(job);
        }
        if let Some(job) = self.injector.lock().expect("injector").pop_front() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Some(job);
        }
        for offset in 1..self.threads {
            let victim = (me + offset) % self.threads;
            if let Some(job) = self.locals[victim].lock().expect("victim deque").pop_back() {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                STEALS.fetch_add(1, Ordering::Relaxed);
                submod_obs::counter!("exec.steals").incr();
                return Some(job);
            }
        }
        None
    }

    /// Drops every queued task after a poisoning panic.
    fn drain(&self) {
        let mut dropped = 0usize;
        for queue in self.locals.iter().chain(std::iter::once(&self.injector)) {
            let mut queue = queue.lock().expect("drain queue");
            dropped += queue.len();
            queue.clear();
        }
        if dropped > 0 {
            self.queued.fetch_sub(dropped, Ordering::SeqCst);
            if self.outstanding.fetch_sub(dropped, Ordering::SeqCst) == dropped {
                self.wake_all();
            }
        }
    }
}

/// Closes a published region on scope exit, unwinding included:
/// withdraws unclaimed helper slots from the worker set, then blocks
/// until every attached helper has detached. Dropping this is the
/// soundness linchpin of the persistent-worker design — only after it
/// runs may the `Scope` (and the borrows its tasks hold) die.
struct RegionCloseGuard<'a, 'scope> {
    scope: Option<&'a Scope<'scope>>,
}

impl Drop for RegionCloseGuard<'_, '_> {
    fn drop(&mut self) {
        let Some(scope) = self.scope else { return };
        workers::retire((scope as *const Scope<'_>).cast());
        let mut guard = scope.parking.lock().expect("parking mutex");
        while scope.attached.load(Ordering::SeqCst) > 0 {
            guard = scope.wakeup.wait(guard).expect("parking condvar");
        }
    }
}

/// Erased attach hook for the persistent worker set: bumps the region's
/// attached count. Invoked under the worker-set mutex, before
/// `workers::retire` could have withdrawn the job.
#[allow(unsafe_code)]
unsafe fn attach_erased(scope: *const ()) {
    // SAFETY: `scope` was published by `Scope::run`, which is still
    // blocked inside the region (it retires the job and waits for
    // attached == 0 before returning), so the reference is live. The
    // lifetime parameter is erased to 'static, which is sound because
    // no access outlives that wait; layout is lifetime-independent.
    let scope = unsafe { &*scope.cast::<Scope<'static>>() };
    scope.attached.fetch_add(1, Ordering::SeqCst);
}

/// Erased worker body for the persistent worker set: service the region
/// like a scoped thread used to, then detach. Any panic escaping the
/// service loop itself (task panics are already caught inside
/// [`Scope::work`]) is captured and re-raised on the region owner's
/// thread, and the detach still happens so the owner never deadlocks.
#[allow(unsafe_code)]
unsafe fn run_erased(scope: *const (), index: usize) {
    // SAFETY: as in `attach_erased`; additionally this worker attached,
    // so the owner's exit wait covers the whole body of this function.
    let scope = unsafe { &*scope.cast::<Scope<'static>>() };
    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| scope.work(index))) {
        scope.panic.lock().expect("panic slot").get_or_insert(payload);
        scope.poisoned.store(true, Ordering::SeqCst);
    }
    // Detach: return to the worker set's availability count *first*
    // (so a back-to-back region sees this worker as free), then
    // decrement under the parking lock and wake the owner (and anyone
    // parked). After the unlock the worker never touches `scope`.
    workers::mark_available();
    let _guard = scope.parking.lock().expect("parking mutex");
    scope.attached.fetch_sub(1, Ordering::SeqCst);
    scope.wakeup.notify_all();
}

/// Creates a parallel region, hands it to `f` for task spawning, runs
/// every spawned task to completion, and returns `f`'s result.
///
/// Tasks may borrow from the caller's stack — the region is serviced by
/// the caller plus helpers attached from the process-lifetime worker
/// set, and this function does not return until every attached helper
/// has detached — and may spawn further tasks through the scope
/// reference they receive. If any task panics, remaining queued tasks
/// are dropped and the first panic payload is re-raised here.
///
/// ```
/// let counter = std::sync::atomic::AtomicUsize::new(0);
/// submod_exec::scope(|s| {
///     for _ in 0..4 {
///         s.spawn(|_| {
///             counter.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
///         });
///     }
/// });
/// assert_eq!(counter.into_inner(), 4);
/// ```
pub fn scope<'scope, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'scope>) -> R,
{
    let threads = current_num_threads().max(1);
    let inline = threads == 1 || in_worker();
    let sc = Scope::new(threads, inline);
    let out = f(&sc);
    if !inline {
        sc.run();
        sc.rethrow();
    }
    out
}

/// Runs `a` and `b`, potentially in parallel, and returns both results —
/// the pool analogue of `rayon::join`. Inside a worker (nested use) both
/// closures run inline on the current thread, in order.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 || in_worker() {
        return (a(), b());
    }
    let slot_a: Mutex<Option<RA>> = Mutex::new(None);
    let slot_b: Mutex<Option<RB>> = Mutex::new(None);
    scope(|s| {
        s.spawn(|_| *slot_a.lock().expect("join slot a") = Some(a()));
        s.spawn(|_| *slot_b.lock().expect("join slot b") = Some(b()));
    });
    (
        slot_a.into_inner().expect("join slot a").expect("join task a completed"),
        slot_b.into_inner().expect("join slot b").expect("join task b completed"),
    )
}

/// Applies `f` to every item on the pool and returns the results **in
/// input order**, regardless of scheduling — the deterministic-reduction
/// primitive everything else builds on.
///
/// Items are split into at most `threads × 4` contiguous chunks; each
/// chunk writes its output into a dedicated slot and the slots are
/// concatenated in chunk order, so the output (including any
/// floating-point reduction applied to it afterwards) is bitwise
/// independent of the thread count.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    // Fault-plan hook: `SUBMOD_FAULTS=panic` fires its one seeded panic
    // here, at region entry, where the pool's unwind plumbing must carry
    // it back to the caller intact on every thread count.
    submod_obs::faults::inject_panic(submod_obs::faults::FaultSite::ExecRegion);
    let threads = current_num_threads().max(1);
    if threads == 1 || in_worker() || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let chunk_count = (threads * CHUNKS_PER_WORKER).min(n).max(1);
    let chunk_size = n.div_ceil(chunk_count);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(chunk_count);
    let mut items = items.into_iter();
    loop {
        let chunk: Vec<T> = items.by_ref().take(chunk_size).collect();
        if chunk.is_empty() {
            break;
        }
        chunks.push(chunk);
    }
    let slots: Vec<Mutex<Option<Vec<R>>>> = (0..chunks.len()).map(|_| Mutex::new(None)).collect();
    let f = &f;
    scope(|s| {
        for (slot, chunk) in slots.iter().zip(chunks) {
            s.spawn(move |_| {
                let out: Vec<R> = chunk.into_iter().map(f).collect();
                *slot.lock().expect("result slot") = Some(out);
            });
        }
    });
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        out.extend(slot.into_inner().expect("slot mutex").expect("chunk completed"));
    }
    out
}

/// [`parallel_map`] for fallible work: every item is attempted, then the
/// first error **in input order** is returned (deterministic at any
/// thread count, unlike a first-to-fail race).
///
/// # Errors
///
/// Returns the error of the lowest-indexed item whose closure failed.
pub fn parallel_map_result<T, R, E, F>(items: Vec<T>, f: F) -> Result<Vec<R>, E>
where
    T: Send,
    R: Send,
    E: Send,
    F: Fn(T) -> Result<R, E> + Sync,
{
    parallel_map(items, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_threads;

    #[test]
    fn inline_region_runs_on_spawn() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        with_threads(1, || {
            let hits = AtomicUsize::new(0);
            scope(|s| {
                s.spawn(|_| {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
                // Inline spawns execute immediately, in order.
                assert_eq!(hits.load(Ordering::SeqCst), 1);
                s.spawn(|_| {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            });
            assert_eq!(hits.into_inner(), 2);
        });
    }

    #[test]
    fn empty_scope_is_a_no_op() {
        with_threads(8, || scope(|_| {}));
    }

    #[test]
    fn parallel_map_result_returns_first_error_by_index() {
        let out: Result<Vec<u32>, String> = with_threads(4, || {
            parallel_map_result((0u32..100).collect(), |x| {
                if x % 30 == 7 {
                    Err(format!("bad {x}"))
                } else {
                    Ok(x)
                }
            })
        });
        assert_eq!(out.unwrap_err(), "bad 7");
    }
}
