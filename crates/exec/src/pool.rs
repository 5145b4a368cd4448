//! The region runner behind [`parallel_map`].
//!
//! A *region* is one `parallel_map` call cut into contiguous chunks. The
//! caller's thread (the owner) and up to `t − 1` helpers *attached from
//! the process-lifetime worker set* (`crate::workers`) claim chunk
//! indices from one shared cursor until it passes the last chunk. Region
//! entry publishes the region and wakes parked persistent workers instead
//! of spawning OS threads, so at steady state entering a region costs a
//! mutex hop and a condvar signal (the `exec.region_entry_nanos` counter
//! meters it, `exec.region_spawns` pins that spawning stops). A region
//! entered with one thread (or from inside another region) runs inline
//! with zero dispatch.

use crate::threads::{current_num_threads, enter_worker, in_worker};
use crate::workers::{self, Attached, RegionJob};
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Chunks per worker that [`parallel_map`] cuts: small enough that an
/// uneven workload leaves chunks for idle workers to claim, large enough
/// that claim traffic stays negligible.
const CHUNKS_PER_WORKER: usize = 4;

/// One parallel region: chunk indices `0..chunks`, handed out by
/// `cursor` to whichever worker asks next.
pub(crate) struct Region<'a> {
    /// Runs chunk `i`; writes its output into that chunk's slot.
    run: &'a (dyn Fn(usize) + Sync),
    chunks: usize,
    /// The next unclaimed chunk index; at or past `chunks` the region has
    /// nothing left to hand out.
    cursor: AtomicUsize,
    /// First captured chunk panic, re-raised by the owner once every
    /// helper has detached.
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    /// The owner's open span, so spans opened inside a chunk nest under
    /// it no matter which worker runs the chunk.
    parent: u64,
}

impl Region<'_> {
    /// Claims and runs chunks until none is left. A panicking chunk
    /// exhausts the cursor, so no chunk is claimed after it; its payload
    /// waits in `panic` for the owner.
    pub(crate) fn work(&self) {
        let _worker = enter_worker();
        submod_obs::with_parent(self.parent, || loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks {
                return;
            }
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (self.run)(i))) {
                self.panic.lock().expect("panic slot").get_or_insert(payload);
                self.cursor.store(self.chunks, Ordering::Relaxed);
            }
        });
    }
}

/// Closes a published region on scope exit, unwinding included:
/// withdraws unclaimed helper slots from the worker set, then blocks
/// until every attached helper has detached. Dropping this is the
/// soundness linchpin of the persistent-worker design — only after it
/// runs may the `Region` (and the borrows its chunks hold) die.
struct CloseGuard<'a>(&'a Arc<Attached>);

impl Drop for CloseGuard<'_> {
    fn drop(&mut self) {
        workers::retire(self.0);
        self.0.wait_for_zero();
    }
}

/// Runs chunks `0..chunks` of `run` on the owner's thread plus up to
/// `threads − 1` helpers, and re-raises the first chunk panic after all
/// helpers have detached.
fn run_region(run: &(dyn Fn(usize) + Sync), chunks: usize, threads: usize) {
    let region = Region {
        run,
        chunks,
        cursor: AtomicUsize::new(0),
        panic: Mutex::new(None),
        parent: submod_obs::current_span(),
    };
    let attached = Arc::new(Attached::default());
    let entry = Instant::now();
    let spawned = workers::dispatch(RegionJob {
        region: (&region as *const Region<'_>).cast(),
        attached: Arc::clone(&attached),
        slots: threads.min(chunks) - 1,
    });
    let nanos = entry.elapsed().as_nanos() as u64;
    submod_obs::counter!("exec.region_entries").incr();
    submod_obs::counter!("exec.region_spawns").add(spawned as u64);
    submod_obs::counter!("exec.region_entry_nanos").add(nanos);
    {
        let _close = CloseGuard(&attached);
        region.work();
    }
    if let Some(payload) = region.panic.into_inner().expect("panic slot") {
        panic::resume_unwind(payload);
    }
}

/// Applies `f` to every item on the pool and returns the results **in
/// input order**, regardless of scheduling — the deterministic-reduction
/// primitive everything else builds on.
///
/// Items are split into at most `threads × 4` contiguous chunks; each
/// chunk writes its output into a dedicated slot and the slots are
/// concatenated in chunk order, so the output (including any
/// floating-point reduction applied to it afterwards) is bitwise
/// independent of the thread count. `f` may borrow from the caller's
/// stack. If a call panics, no further chunk starts and the first
/// payload is re-raised here.
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
    let chunk_count = (threads * CHUNKS_PER_WORKER).min(n);
    let chunk_size = n.div_ceil(chunk_count);
    let mut inputs: Vec<Mutex<Option<Vec<T>>>> = Vec::with_capacity(chunk_count);
    let mut items = items.into_iter();
    while items.len() > 0 {
        inputs.push(Mutex::new(Some(items.by_ref().take(chunk_size).collect())));
    }
    let outputs: Vec<Mutex<Option<Vec<R>>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
    let run = |i: usize| {
        let chunk = inputs[i].lock().expect("chunk").take().expect("chunk claimed once");
        let out: Vec<R> = chunk.into_iter().map(&f).collect();
        *outputs[i].lock().expect("result slot") = Some(out);
    };
    run_region(&run, inputs.len(), threads);
    let mut out = Vec::with_capacity(n);
    for slot in outputs {
        out.extend(slot.into_inner().expect("result slot").expect("chunk completed"));
    }
    out
}
