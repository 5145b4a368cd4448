//! The process-lifetime worker set.
//!
//! Workers live for the life of the process, because spawning and
//! joining OS threads per region costs microseconds of `clone`/`join`,
//! which dominates microsecond-scale transforms. A region *publishes*
//! itself here, idle workers *attach*, claim chunks from the region's
//! cursor until none is left, and *detach* back to the set's condvar. At
//! steady state a region entry spawns zero OS threads (the
//! `exec.region_spawns` counter lets tests pin that); the set only grows
//! when a region wants more helpers than are currently idle.
//!
//! ## Why the one `unsafe impl` is sound
//!
//! Persistent threads cannot borrow a region's stack through safe APIs,
//! so the published [`RegionJob`] carries a lifetime-erased pointer to
//! the owner's `Region`. The lifetime argument is the classic scoped-pool
//! one:
//!
//! 1. workers attach **under the set's mutex**, bumping the job's
//!    [`Attached`] count before the job can be observed as claimed;
//! 2. at region exit the owner calls [`retire`] (same mutex), after
//!    which no worker can ever see the job again;
//! 3. the owner then blocks until the attached count returns to zero,
//!    so the `Region` — and everything its chunks borrow — strictly
//!    outlives every worker access.
//!
//! The count itself lives behind an `Arc`, not in the `Region`, so a
//! detaching worker touches only memory it co-owns: the owner may free
//! the `Region` the moment the count reaches zero.

#![allow(unsafe_code)]

use crate::pool::Region;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// How many helpers are attached to one region.
#[derive(Default)]
pub(crate) struct Attached {
    count: Mutex<usize>,
    zero: Condvar,
}

impl Attached {
    fn attach(&self) {
        *self.count.lock().expect("attached count") += 1;
    }

    fn detach(&self) {
        let mut count = self.count.lock().expect("attached count");
        *count -= 1;
        if *count == 0 {
            self.zero.notify_all();
        }
    }

    /// Blocks until every attached helper has detached.
    pub(crate) fn wait_for_zero(&self) {
        let mut count = self.count.lock().expect("attached count");
        while *count > 0 {
            count = self.zero.wait(count).expect("attached count");
        }
    }
}

/// A published parallel region and how many helper slots remain.
pub(crate) struct RegionJob {
    /// Lifetime-erased `*const Region<'_>`; valid while its helpers are
    /// counted in `attached` (see module docs).
    pub(crate) region: *const Region<'static>,
    pub(crate) attached: Arc<Attached>,
    /// Helper slots not yet claimed; the job leaves the queue at zero.
    pub(crate) slots: usize,
}

// SAFETY: the region pointer is only dereferenced by workers that
// attached under the set mutex, and the publishing thread keeps the
// Region alive until every attached worker detached (module docs).
unsafe impl Send for RegionJob {}

struct State {
    /// Published regions with unclaimed helper slots, FIFO.
    queue: VecDeque<RegionJob>,
    /// Persistent workers ever spawned (only grows, under the mutex).
    total: usize,
}

struct WorkerSet {
    state: Mutex<State>,
    /// Parks idle persistent workers; notified on every publish.
    available: Condvar,
    /// Workers currently attached to a region. Decremented right before
    /// *detach* (before the region owner is woken), not when the worker
    /// re-parks — so by the time an owner can enter its next region, the
    /// workers it just released already count as available and
    /// back-to-back regions never re-spawn.
    busy: AtomicUsize,
}

static SET: OnceLock<WorkerSet> = OnceLock::new();

fn set() -> &'static WorkerSet {
    SET.get_or_init(|| WorkerSet {
        state: Mutex::new(State { queue: VecDeque::new(), total: 0 }),
        available: Condvar::new(),
        busy: AtomicUsize::new(0),
    })
}

/// Publishes a region for `job.slots` helpers and wakes idle workers,
/// spawning new persistent threads only for the shortfall between the
/// request and the workers not currently serving a region. Returns how
/// many threads were spawned (zero at steady state).
pub(crate) fn dispatch(job: RegionJob) -> usize {
    let s = set();
    let missing = {
        let mut state = s.state.lock().expect("worker-set state");
        let available = state.total.saturating_sub(s.busy.load(Ordering::SeqCst));
        let missing = job.slots.saturating_sub(available);
        state.queue.push_back(job);
        // Count the new workers in before spawning so a concurrent
        // dispatch doesn't double-spawn; corrected below on failure.
        state.total += missing;
        missing
    };
    // Spawn outside the lock, and degrade instead of panicking: a
    // transient OS thread-limit failure must cost this region some
    // parallelism, not poison the set's mutex and brick every future
    // region (the owner always completes the region itself, and
    // `retire` withdraws whatever slots go unclaimed).
    let mut spawned = 0;
    for _ in 0..missing {
        let worker = std::thread::Builder::new().name("submod-exec-worker".into());
        if worker.spawn(worker_loop).is_err() {
            break;
        }
        spawned += 1;
    }
    if spawned < missing {
        s.state.lock().expect("worker-set state").total -= missing - spawned;
    }
    s.available.notify_all();
    spawned
}

/// Withdraws any unclaimed helper slots of the region counted by
/// `attached` (region exit). A worker holding the mutex either already
/// attached — the owner's attached-count wait covers it — or can no
/// longer see the job.
pub(crate) fn retire(attached: &Arc<Attached>) {
    let s = set();
    s.state.lock().expect("worker-set state").queue.retain(|j| !Arc::ptr_eq(&j.attached, attached));
}

/// A persistent worker: claim a helper slot (attaching under the set
/// mutex), work the region until its cursor is exhausted, detach, and
/// return to the condvar.
fn worker_loop() {
    let s = set();
    loop {
        let (region, attached) = {
            let mut state = s.state.lock().expect("worker-set state");
            loop {
                if let Some(front) = state.queue.front_mut() {
                    let claim = (front.region, Arc::clone(&front.attached));
                    front.slots -= 1;
                    if front.slots == 0 {
                        state.queue.pop_front();
                    }
                    s.busy.fetch_add(1, Ordering::SeqCst);
                    claim.1.attach();
                    break claim;
                }
                state = s.available.wait(state).expect("worker-set condvar");
            }
        };
        // SAFETY: attached above, under the set mutex and before `retire`
        // could have removed the job, so the owner keeps the Region (and
        // all region borrows) alive until our `detach` below. Chunk
        // panics are caught inside `work`.
        unsafe { (*region).work() };
        s.busy.fetch_sub(1, Ordering::SeqCst);
        attached.detach();
    }
}
